"""Unit tests for the DSK-style partitioned k-mer counter."""

import pytest

from repro.errors import PipelineError
from repro.seq.records import SeqRecord
from repro.trinity.dsk import DskConfig, dsk_count_with_stats
from repro.trinity.jellyfish import jellyfish_count


def dsk_count(*args, **kwargs):
    return dsk_count_with_stats(*args, **kwargs)[0]


def reads(*seqs):
    return [SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)]


SEQS = [
    "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCAT",
    "TTGACCGTAGGCTAACCGTTAGGCCTATGCGATCAGG",
    "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCAT",
]


class TestEquivalence:
    @pytest.mark.parametrize("n_partitions", [1, 2, 8, 64])
    def test_matches_jellyfish(self, n_partitions, tmp_path):
        jf = jellyfish_count(reads(*SEQS), k=9)
        dsk = dsk_count(
            reads(*SEQS), k=9, config=DskConfig(n_partitions=n_partitions), workdir=tmp_path
        )
        assert dsk == jf

    def test_non_canonical_matches(self, tmp_path):
        jf = jellyfish_count(reads(*SEQS), k=7, canonical=False)
        dsk = dsk_count(reads(*SEQS), k=7, workdir=tmp_path, canonical=False)
        assert dsk == jf

    def test_tiny_buffer_forces_flushes(self, tmp_path):
        cfg = DskConfig(n_partitions=4, buffer_kmers=2)
        dsk = dsk_count(reads(*SEQS), k=9, config=cfg, workdir=tmp_path)
        jf = jellyfish_count(reads(*SEQS), k=9)
        assert dsk == jf

    def test_empty_reads(self, tmp_path):
        counts = dsk_count(reads("ACG"), k=9, workdir=tmp_path)
        assert len(counts) == 0


class TestMemoryClaim:
    def test_partitioning_reduces_peak_memory(self, tmp_path):
        """DSK's point: peak memory shrinks with partitions (paper SS:II.A:
        'uses less memory than Jellyfish')."""
        big = reads(*(SEQS * 30))
        _c1, s1 = dsk_count_with_stats(big, k=9, config=DskConfig(n_partitions=1), workdir=tmp_path / "p1")
        _c8, s8 = dsk_count_with_stats(big, k=9, config=DskConfig(n_partitions=8), workdir=tmp_path / "p8")
        assert s8.peak_memory_bytes() < s1.peak_memory_bytes()

    def test_stats_counts_stream(self, tmp_path):
        _c, stats = dsk_count_with_stats(reads(*SEQS), k=9, workdir=tmp_path)
        expected = sum(len(s) - 9 + 1 for s in SEQS)
        assert stats.n_kmers_streamed == expected
        assert stats.bytes_spilled == expected * 8

    def test_peak_is_real_nbytes(self, tmp_path):
        """Peak accounting uses the arrays' actual nbytes, not the
        retired 100 B/key dict extrapolation."""
        counts, stats = dsk_count_with_stats(
            reads(*SEQS), k=9, config=DskConfig(n_partitions=4), workdir=tmp_path
        )
        # Partitions are disjoint slices of the final table, so the
        # accumulated builder partials are exactly the final arrays.
        assert stats.peak_builder_bytes == counts.memory_bytes()
        # One partition's working set: raw codes + unique/count arrays —
        # bounded by the whole stream + whole table, and strictly positive.
        assert 0 < stats.peak_partition_bytes
        assert stats.peak_partition_bytes <= stats.bytes_spilled + counts.memory_bytes()
        assert stats.peak_memory_bytes() == max(
            stats.peak_partition_bytes, stats.peak_builder_bytes
        )

    def test_more_partitions_shrink_partition_working_set(self, tmp_path):
        big = reads(*(SEQS * 30))
        _c1, s1 = dsk_count_with_stats(big, k=9, config=DskConfig(n_partitions=1), workdir=tmp_path / "q1")
        _c8, s8 = dsk_count_with_stats(big, k=9, config=DskConfig(n_partitions=8), workdir=tmp_path / "q8")
        assert s8.peak_partition_bytes < s1.peak_partition_bytes


class TestConfig:
    def test_invalid_partitions(self):
        with pytest.raises(PipelineError):
            DskConfig(n_partitions=0)

    def test_invalid_buffer(self):
        with pytest.raises(PipelineError):
            DskConfig(buffer_kmers=0)

    def test_spill_files_cleaned(self, tmp_path):
        dsk_count(reads(*SEQS), k=9, config=DskConfig(n_partitions=4), workdir=tmp_path)
        assert not list(tmp_path.glob("partition*.u64"))
