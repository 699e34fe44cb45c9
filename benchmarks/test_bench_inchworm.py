"""CI guard for the Inchworm batched-extension kernel.

``BENCH_inchworm.json`` tracks the full labeled history (kernel widths
16/64/256, end-to-end walls, thread makespans); this bench re-measures
the acceptance property at the reference width on a CI-friendly input:
one batched ``probe_extensions`` + ``select_extensions`` dispatch must
beat ``B`` scalar ``_best_extension`` probes by a wide margin.
"""

import numpy as np

from benchmarks.inchworm_bench_runner import one_rank
from repro.trinity.inchworm import (
    InchwormConfig,
    _best_extension,
    inchworm_assemble,
    probe_extensions,
    select_extensions,
)
from repro.trinity.jellyfish import jellyfish_count
from repro.util.rng import derive_seed

REFERENCE_BATCH = 64
K = 25


def test_bench_batched_extension_kernel(benchmark, bench_reads):
    counts = jellyfish_count(bench_reads, K)
    filtered = counts.index.filtered(2)
    salt = derive_seed(InchwormConfig().seed, "inchworm-ties")
    rng = np.random.default_rng(0)
    ends = rng.choice(filtered.codes, size=REFERENCE_BATCH, replace=False).astype(
        np.uint64
    )
    end_list = [int(c) for c in ends.tolist()]

    def batched_dispatch():
        probe = probe_extensions(filtered, ends, right=True, salt=salt)
        return select_extensions(probe, ~probe.found)

    import time

    used = np.zeros(len(filtered), dtype=bool)
    t0 = time.perf_counter()
    for c in end_list:
        _best_extension(filtered, True, used, c, salt, right=True)
    serial_s = time.perf_counter() - t0

    benchmark(batched_dispatch)
    batched_s = benchmark.stats.stats.min
    benchmark.extra_info.update(
        {"serial_us": serial_s * 1e6, "batched_us": batched_s * 1e6}
    )
    # Acceptance floor is 3x at B=64; the recorded history shows ~12x.
    assert serial_s / batched_s > 3.0


def test_bench_threaded_engine(benchmark, bench_reads):
    """The component kernel on a 4-thread team (one-rank ``mpi_inchworm``)
    reproduces the serial contigs byte for byte while the team's virtual
    speedup scales (history tracks exact makespans)."""
    counts = jellyfish_count(bench_reads, K)
    cfg = InchwormConfig(seed=0)
    serial = inchworm_assemble(counts, cfg)

    rank = benchmark(one_rank, counts, cfg, n_threads=4).outputs[0]
    speedup = rank.metrics["team_serial_s"] / rank.metrics["team_makespan_s"]
    benchmark.extra_info.update(
        {"team_speedup": speedup, "contigs": len(rank.outputs.contigs)}
    )
    assert speedup > 1.5
    assert rank.outputs.contigs == serial
