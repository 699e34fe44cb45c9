"""CI guard for the distributed component-partitioned Inchworm.

``BENCH_inchworm_mpi.json`` tracks the labeled wall-clock history; this
bench re-checks the acceptance properties on the runner's own workload:
the 8-rank virtual makespan must beat the 1-rank one by the acceptance
floor, and the contigs must reproduce serial ``inchworm_assemble``
byte-for-byte at either rank count and with a thread team per rank.
"""

import os

from benchmarks.inchworm_mpi_bench_runner import (
    N_THREADS,
    SPEEDUP_NPROCS,
    build_counts,
)
from repro.mpi import mpirun
from repro.parallel.mpi_inchworm import (
    InchwormInputs,
    InchwormStageConfig,
    mpi_inchworm,
)
from repro.trinity.inchworm import inchworm_assemble


def test_bench_mpi_scaling_beats_front_end(benchmark):
    """Ranks-only scaling: one thread per rank on both sides.

    The guard used to compare 4-thread teams, and under component-granular
    threads both of those sit on the same floor — the thread that holds
    the giant component (42 % of the k-mer mass here) — so the ratio says
    nothing about the deal and was already flaky from host contention.
    At one thread per rank the 1-rank side pays for every component and
    the 8-rank side for its heaviest rank, which is what the deal moves.
    The runs are pinned to one CPU, as the whole-pipeline bench pins its
    children: unpinned, eight rank threads fighting for the GIL inflate
    their own thread-CPU clocks ~2.5x in most runs (ROADMAP item 4) —
    the simulator's defect, not the deal's.

    Readings of this ratio (7 alternated 1-rank / 8-rank runs each,
    median [min .. max], this host): with the lockstep kernel of PR 16,
    2.04-2.09x [1.66 .. 2.35] (0.150-0.166 s over 0.074-0.079 s); with
    the successor table of PR 20 but the probe still built once and
    charged to every rank, 1.83-1.84x [1.55 .. 1.99] (0.085 over 0.046 s)
    — both sides fell ~2x, but the replicated probe became most of the
    8-rank stage, and the minimum sat on the floor; with the probe dealt
    in position blocks (what ships), 2.78-2.92x [2.41 .. 3.27] (0.059-0.093
    over 0.021-0.032 s).
    """
    counts, tcfg = build_counts(seed=0)
    inputs = InchwormInputs(counts=counts)

    def run(nprocs, n_threads=1):
        return mpirun(
            mpi_inchworm, nprocs, inputs,
            InchwormStageConfig(inchworm=tcfg.inchworm(), n_threads=n_threads),
        )

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        one = run(1)
        eight = benchmark(run, SPEEDUP_NPROCS)
    finally:
        os.sched_setaffinity(0, cpus)

    # Neither the deal nor a thread team may change the output.
    serial = inchworm_assemble(counts, tcfg.inchworm())
    assert one.outputs[0].outputs.contigs == serial
    assert eight.outputs[0].outputs.contigs == serial
    assert run(SPEEDUP_NPROCS, N_THREADS).outputs[0].outputs.contigs == serial

    speedup = one.makespan / eight.makespan
    benchmark.extra_info.update(
        {
            "front_end_makespan_s": one.makespan,
            "mpi_makespan_s": eight.makespan,
            "speedup": speedup,
            "n_components": int(one.outputs[0].outputs.n_components),
        }
    )
    # Acceptance floor is 1.5x virtual-clock speedup at 8 ranks over 1 rank.
    assert speedup > 1.5
