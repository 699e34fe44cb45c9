"""CI guard for the distributed Butterfly deal strategies.

``BENCH_butterfly.json`` tracks the labeled wall-clock history; this
bench re-checks the acceptance properties on the runner's own skewed
workload: the LPT deal must beat the cost-blind round-robin decisively
on the virtual makespan, and both deals of the fused stage on
contig-only inputs must reproduce the serial ``butterfly_assemble``
output exactly.

Since PR 18 the walk is linear in the nodes, so the heavy components cost
13x a light one (before: 12x the length -> ~150x the cost) and a launch
is 7-25 ms of virtual time instead of 140-350 ms.  The *ratio* is where
it was — three heavies on one rank against one per rank is 3x either way
(pinned, eight pairs each: parent 2.5-2.8x, this PR 2.6-2.95x with the
cyclic collector paused) — but one collector pass (~20 ms) charged to the
rank thread that happened to allocate now outweighs a whole launch: with
it on, single pairs read 0.8-6.3x.  The floor stays 1.5x; each side is
the best of its launches.

Since PR 22 (two-array graph, walk over integer rows) a launch is 1-6 ms:
round-robin 0.028-0.042 -> 0.0043-0.0060 s, dynamic 0.0084-0.0108 ->
0.0012-0.0013 s (parent unpinned, this PR pinned; four runs a side).  At
that size eight rank threads on two CPUs charge their switches to each
other's thread clocks — unpinned, three runs of this guard read 3.0 / 2.2
/ 1.4x — so the launches are pinned to one CPU, as the Jellyfish and
Inchworm guards already are: 3.5-4.6x (parent, unpinned: 3.1-5.0x).
"""

import os

from benchmarks.butterfly_bench_runner import NPROCS, build_workload, stage_config
from repro.mpi import mpirun
from repro.parallel.mpi_chrysalis_backend import (
    contig_only_inputs,
    mpi_chrysalis_backend,
)


def test_bench_dynamic_deal_beats_round_robin(benchmark):
    seqs, serial = build_workload(seed=0, nprocs=NPROCS)
    inputs = contig_only_inputs(seqs)

    def run(strategy):
        return mpirun(
            mpi_chrysalis_backend, NPROCS, inputs, stage_config(0, strategy)
        )

    # Pinned to one CPU, as the Jellyfish and Inchworm launch-ratio guards
    # are: a launch is 2-6 ms of thread time now, and eight rank threads
    # sharing two CPUs put their switches on each other's clocks.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        statics = [run("round_robin") for _ in range(3)]
        dynamics = []
        benchmark(lambda: dynamics.append(run("dynamic")))
    finally:
        os.sched_setaffinity(0, cpus)

    assert all(rec.outputs[0].transcripts == serial for rec in (*statics, *dynamics))
    static, dynamic = (
        min(recs, key=lambda rec: rec.makespan) for recs in (statics, dynamics)
    )

    def loop_imbalance(run):
        # The final barrier equalises rank end-times, so imbalance lives
        # in the enumeration-loop metric, not the run-level comm times.
        loops = [r.metrics["loop_time"] for r in run.outputs]
        return max(loops) / min(loops)

    gain = static.makespan / dynamic.makespan
    benchmark.extra_info.update(
        {
            "static_makespan_s": static.makespan,
            "dynamic_makespan_s": dynamic.makespan,
            "gain": gain,
            "static_loop_imbalance": loop_imbalance(static),
            "dynamic_loop_imbalance": loop_imbalance(dynamic),
        }
    )
    # Acceptance floor is 1.5x on the stride-skewed workload; the recorded
    # history shows 2.5-3.0x at 8 ranks.
    assert gain > 1.5
    assert loop_imbalance(dynamic) < loop_imbalance(static)
