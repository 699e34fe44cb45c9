"""CI guard for the distributed Jellyfish k-mer counter.

``BENCH_jellyfish.json`` tracks the labeled wall-clock history; this
bench re-checks the acceptance properties on the runner's own workload:
the 8-rank virtual makespan must beat the 1-rank one by the acceptance
floor, and the merged table must reproduce serial ``jellyfish_count``
exactly at every rank count.
"""

import os

import numpy as np

from benchmarks.jellyfish_bench_runner import ASSEMBLY_K, SPEEDUP_NPROCS, build_reads
from repro.mpi import mpirun
from repro.parallel.mpi_jellyfish import (
    JellyfishInputs,
    JellyfishStageConfig,
    mpi_jellyfish,
)
from repro.trinity.jellyfish import JellyfishConfig, jellyfish_count


def test_bench_mpi_scaling_beats_serial(benchmark):
    reads = build_reads(seed=0)
    jcfg = JellyfishConfig(k=ASSEMBLY_K)
    serial = jellyfish_count(
        reads, jcfg.k, canonical=jcfg.canonical, batch_bases=jcfg.batch_bases
    )
    inputs = JellyfishInputs(reads=reads)
    config = JellyfishStageConfig(jellyfish=jcfg)

    def run(nprocs):
        return mpirun(mpi_jellyfish, nprocs, inputs, config)

    # Pinned to one CPU, as the whole-pipeline bench pins its children and
    # `test_bench_inchworm_mpi.py` does: unpinned, eight rank threads
    # fighting for the GIL inflate their own thread-CPU clocks (ROADMAP
    # item 4; 0.011-0.016 s unpinned against 0.006-0.008 s pinned here).
    # Both sides are the best of three *warm* launches (PR 18's rule for
    # launch-ratio guards).  Up to PR 20 this guard compared one cold
    # one-rank launch (0.040-0.047 s; a warm one read 0.025-0.027 s) with
    # warm 8-rank ones, and the cushion that gave its ~3.3x hid both the
    # start-up share and the unpinned noise; PR 21 halved the warm one-rank
    # makespan, and taken the old way the guard failed once in eight runs.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        one = min((run(1) for _ in range(3)), key=lambda rec: rec.makespan)
        eight = min(
            [benchmark(run, SPEEDUP_NPROCS)] + [run(SPEEDUP_NPROCS) for _ in range(2)],
            key=lambda rec: rec.makespan,
        )
    finally:
        os.sched_setaffinity(0, cpus)

    for rec in (one, eight):
        index = rec.outputs[0].counts.index
        assert np.array_equal(index.codes, serial.index.codes)
        assert np.array_equal(index.values, serial.index.values)

    speedup = one.makespan / eight.makespan
    benchmark.extra_info.update(
        {
            "serial_makespan_s": one.makespan,
            "mpi_makespan_s": eight.makespan,
            "speedup": speedup,
            "n_kmers": len(serial.index),
        }
    )
    # Acceptance floor is 1.5x virtual-clock speedup at 8 ranks on the
    # whitefly miniature.  Measured this way: 1.7-2.75x, median 2.2x (six
    # runs); the runner's pinned history reads the same, 2.1-2.4x since
    # PR 21 against 3.0-3.7x at its parent (three runs a side): packing in
    # cache-sized blocks halved the one-rank makespan (0.021-0.023 ->
    # 0.014-0.015 s) and left the 8-rank one where it was (0.006-0.007 s)
    # — an eighth of the reads already fitted the cache, which is what
    # part of the old ratio was.
    assert speedup > 1.5
