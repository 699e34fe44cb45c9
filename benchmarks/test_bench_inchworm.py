"""CI guard for the Inchworm chain table.

``BENCH_inchworm.json`` holds the frozen history (kernel rows at
16/64/256 ends, end-to-end walls, thread makespans); this bench
re-measures the acceptance property at the reference width on a
CI-friendly input: one greedy step per end through the prebuilt chain
table — ``walk`` capped at two k-mers: a one-slot chain jump or an exit
link — must beat the per-step oracle (``_best_extension`` of
``tests/reference_inchworm.py``, the scalar probe the table replaced) by
a wide margin.
"""

import numpy as np

from benchmarks.conftest import _best_of
from repro.mpi import mpirun
from repro.parallel.mpi_inchworm import InchwormInputs, InchwormStageConfig, mpi_inchworm
from repro.trinity.inchworm import (
    InchwormConfig,
    chain_table,
    inchworm_assemble,
    neighbours,
    walk,
)
from repro.trinity.jellyfish import jellyfish_count
from repro.util.rng import derive_seed
from tests import reference_inchworm

REFERENCE_BATCH = 64
K = 25


def test_bench_batched_extension_kernel(benchmark, bench_reads):
    counts = jellyfish_count(bench_reads, K)
    filtered = counts.index.filtered(2)
    salt = derive_seed(InchwormConfig().seed, "inchworm-ties")
    rng = np.random.default_rng(0)
    at = rng.choice(len(filtered), size=REFERENCE_BATCH, replace=False)
    table = chain_table(filtered, True, salt, neighbours(filtered), np.arange(len(filtered)))
    states = np.asarray(table.starts)[at].tolist()  # each end as stored
    unused = bytearray(len(filtered))

    def table_step():
        """One rightward greedy step at each end, nothing used yet: each
        walk's claim is cleared again before the next."""
        for cur in states:
            for state in walk(table, unused, cur, 2)[1]:
                unused[state >> 1] = 0

    used = np.zeros(len(filtered), dtype=bool)
    ends = filtered.codes[at].tolist()

    def oracle_step():
        for c in ends:
            reference_inchworm._best_extension(filtered, True, used, c, salt, right=True)

    serial_s = _best_of(oracle_step, 1)
    benchmark(table_step)  # the recorded column; absent under --benchmark-disable
    batched_s = _best_of(table_step, 5)
    benchmark.extra_info.update(
        {"serial_us": serial_s * 1e6, "batched_us": batched_s * 1e6}
    )
    # Acceptance floor is 3x at B=64; the lockstep's history shows ~12x,
    # the table's ~100x (a row lookup against four searches and a compare).
    assert serial_s / batched_s > 3.0


def test_bench_threaded_engine(benchmark, bench_reads):
    """The component kernel on a 4-thread team (one-rank ``mpi_inchworm``)
    reproduces the serial contigs byte for byte while the team's virtual
    speedup scales (history tracks exact makespans)."""
    counts = jellyfish_count(bench_reads, K).filtered(2)  # the solid table
    cfg = InchwormConfig(seed=0)
    serial = inchworm_assemble(counts, cfg)

    run = benchmark(
        mpirun, mpi_inchworm, 1, InchwormInputs(counts=counts),
        InchwormStageConfig(inchworm=cfg, n_threads=4), trace=True,
    )
    rank = run.outputs[0]
    (team,) = [s for s in run.spans if s.label == "inchworm:assemble_components"]
    speedup = team.attrs["speedup"]
    benchmark.extra_info.update(
        {"team_speedup": speedup, "contigs": len(rank.outputs.contigs)}
    )
    assert speedup > 1.5
    assert rank.outputs.contigs == serial
