"""Micro-benchmarks of the hot kernels (profiling guide: measure first).

These are conventional multi-round benchmarks — they track the real
Python kernel performance that the calibrated simulations build on.
"""

import numpy as np

from repro.seq.kmers import kmer_array, revcomp_codes
from repro.openmp.schedule import dynamic_makespan
from repro.trinity.bowtie import BowtieConfig, BowtieIndex, align_reads
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count
from repro.util.rng import spawn_rng
from repro.validation.smith_waterman import sw_align, sw_score


def _random_seq(n, seed=0):
    rng = spawn_rng(seed, "bench")
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


def test_bench_kmer_extraction(benchmark):
    seq = _random_seq(100_000)
    result = benchmark(kmer_array, seq, 25)
    assert result.size == 100_000 - 24


def test_bench_revcomp_vectorised(benchmark):
    arr = kmer_array(_random_seq(100_000), 25)
    out = benchmark(revcomp_codes, arr, 25)
    assert out.size == arr.size


def test_bench_jellyfish_count(benchmark, bench_reads):
    counts = benchmark(jellyfish_count, bench_reads[:2000], 25)
    assert len(counts) > 0


def test_bench_inchworm(benchmark, bench_reads):
    counts = jellyfish_count(bench_reads, 25)

    def assemble():
        return inchworm_assemble(counts, InchwormConfig(seed=0))

    contigs = benchmark(assemble)
    assert contigs


def test_bench_bowtie_align(benchmark, bench_reads):
    counts = jellyfish_count(bench_reads, 25)
    contigs = inchworm_assemble(counts, InchwormConfig(seed=0))
    index = BowtieIndex(contigs, BowtieConfig())
    reads = bench_reads[:200]
    records = benchmark(align_reads, reads, index)
    assert len(records) == 200


def test_bench_smith_waterman(benchmark):
    q = _random_seq(500, seed=1)
    t = _random_seq(500, seed=2)
    benchmark(sw_align, q, t)


def test_bench_sw_score_only(benchmark):
    q = _random_seq(1000, seed=3)
    t = _random_seq(1000, seed=4)
    benchmark(sw_score, q, t)


def test_bench_dynamic_schedule(benchmark):
    rng = spawn_rng(0, "sched-bench")
    costs = rng.lognormal(0, 1, 100_000)
    ms = benchmark(dynamic_makespan, costs, 16)
    assert ms > 0
