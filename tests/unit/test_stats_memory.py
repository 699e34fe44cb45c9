"""Unit tests for assembly stats and the paper-scale memory model."""

import pytest

from repro.cluster.memory import model_stage_memory
from repro.seq.stats import assembly_stats, gc_fraction, nx


class TestNx:
    def test_doc_example(self):
        assert nx([2, 3, 4, 5, 10], 0.5) == 5

    def test_single(self):
        assert nx([7], 0.5) == 7

    def test_empty(self):
        assert nx([], 0.5) == 0

    def test_n90_le_n50(self):
        lengths = [100, 200, 300, 400, 1000]
        assert nx(lengths, 0.9) <= nx(lengths, 0.5)

    def test_all_bases_covered_at_1(self):
        assert nx([5, 10, 20], 1.0) == 5

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            nx([1], 0.0)
        with pytest.raises(ValueError):
            nx([1], 1.5)


class TestAssemblyStats:
    def test_basic(self):
        stats = assembly_stats(["ACGT", "GGGGGGGG"])
        assert stats.n_sequences == 2
        assert stats.total_bases == 12
        assert stats.max_len == 8
        assert stats.n50 == 8

    def test_gc(self):
        assert gc_fraction(["GGCC"]) == 1.0
        assert gc_fraction(["AATT"]) == 0.0
        assert gc_fraction([]) == 0.0

    def test_empty(self):
        stats = assembly_stats([])
        assert stats.n_sequences == 0
        assert stats.n50 == 0

    def test_row_shape(self):
        assert len(assembly_stats(["ACGT"]).as_row()) == 6


class TestMemoryModel:
    def test_inchworm_is_peak(self):
        mem = model_stage_memory()
        assert mem.inchworm_gb == max(
            mem.jellyfish_gb, mem.inchworm_gb, mem.bowtie_gb,
            mem.gff_gb, mem.rtt_gb, mem.butterfly_gb,
        )

    def test_baseline_needs_big_node(self):
        # Fig 2 ran on the 256 GB node; the model must fill most of it
        # but fit (the run succeeded).
        mem = model_stage_memory(nprocs=1)
        assert 128 < mem.inchworm_gb < 256

    def test_chrysalis_fits_small_nodes(self):
        # The MPI benchmarking nodes have 128 GB (paper SS:V).
        mem = model_stage_memory(nprocs=16)
        for stage_gb in (mem.bowtie_gb, mem.gff_gb, mem.rtt_gb):
            assert stage_gb < 128

    def test_bowtie_shrinks_with_nodes(self):
        assert (
            model_stage_memory(nprocs=16).bowtie_gb
            < model_stage_memory(nprocs=1).bowtie_gb
        )

    def test_gff_per_node_footprint_flat(self):
        # The paper lists per-node memory of MPI Chrysalis as an open
        # problem: pooled welds live on every rank.
        assert (
            model_stage_memory(nprocs=16).gff_gb
            == model_stage_memory(nprocs=1).gff_gb
        )
