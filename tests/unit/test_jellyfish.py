"""Unit tests for the Jellyfish k-mer counter and dump formats."""

import pytest

from repro.errors import SequenceError
from repro.seq.alphabet import reverse_complement
from repro.seq.kmer_index import read_counter_dump
from repro.seq.kmers import canonical_code, encode_kmer
from repro.seq.records import SeqRecord
from repro.trinity.jellyfish import jellyfish_count, jellyfish_dump


def reads(*seqs):
    return [SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)]


def count_of(counts, kmer):
    """Count of a k-mer string, canonicalised like the table's keys."""
    code = encode_kmer(kmer)
    return counts.get(canonical_code(code, counts.k) if counts.canonical else code)


class TestCount:
    def test_simple_counts(self):
        counts = jellyfish_count(reads("AAAA"), k=3, canonical=False)
        assert counts.get(encode_kmer("AAA")) == 2

    def test_canonical_merges_strands(self):
        counts = jellyfish_count(reads("AAA", "TTT"), k=3, canonical=True)
        assert count_of(counts, "AAA") == 2
        assert count_of(counts, "TTT") == 2  # same canonical key
        assert len(counts) == 1

    def test_non_canonical_keeps_strands(self):
        counts = jellyfish_count(reads("AAA", "TTT"), k=3, canonical=False)
        assert len(counts) == 2

    def test_strand_invariance_of_totals(self):
        seq = "ACGGTAGCATTTGCGGCA"
        fwd = jellyfish_count(reads(seq), k=5)
        rev = jellyfish_count(reads(reverse_complement(seq)), k=5)
        assert fwd == rev

    def test_batching_boundary_does_not_merge_reads(self):
        # With tiny batches, the N separator must prevent cross-read k-mers.
        a = jellyfish_count(reads("ACGTAC", "GTACGT"), k=4, batch_bases=1)
        b = jellyfish_count(reads("ACGTAC", "GTACGT"), k=4, batch_bases=10**9)
        assert a == b

    def test_total(self):
        counts = jellyfish_count(reads("ACGTA"), k=3)
        assert counts.total == 3

    def test_filtered(self):
        counts = jellyfish_count(reads("AAAAA", "CCC"), k=3)
        filtered = counts.filtered(2)
        assert count_of(filtered, "AAA") == 3
        assert count_of(filtered, "CCC") == 0

    def test_filtered_noop_for_min_one(self):
        counts = jellyfish_count(reads("ACGTA"), k=3)
        assert counts.filtered(1) is counts

    def test_memory_estimate_scales(self):
        small = jellyfish_count(reads("ACGTA"), k=3)
        big = jellyfish_count(reads("ACGTAGCTAGCATCAGTTAGCGA"), k=3)
        assert big.memory_bytes() >= small.memory_bytes()


class TestEdgeCases:
    """Degenerate inputs and batch-boundary behaviour.

    The invariant throughout: the batched path's dump bytes equal the
    unbatched path's, whatever the flush points — the batching is a
    working-set knob, never an output knob.
    """

    def _dump_bytes(self, tmp_path, name, counts):
        path = tmp_path / name
        jellyfish_dump(counts, path)
        return path.read_bytes()

    def test_empty_read_set(self, tmp_path):
        counts = jellyfish_count([], k=5)
        assert len(counts) == 0
        assert counts.total == 0
        baseline = jellyfish_count([], k=5, batch_bases=1)
        assert self._dump_bytes(tmp_path, "a.fa", counts) == self._dump_bytes(
            tmp_path, "b.fa", baseline
        ) == b""

    def test_all_reads_shorter_than_k(self, tmp_path):
        short = reads("ACG", "T", "GGAA")
        counts = jellyfish_count(short, k=5)
        assert len(counts) == 0
        baseline = jellyfish_count(short, k=5, batch_bases=1)
        assert self._dump_bytes(tmp_path, "a.fa", counts) == self._dump_bytes(
            tmp_path, "b.fa", baseline
        ) == b""

    def test_embedded_n_runs_at_batch_boundaries(self, tmp_path):
        # N runs touching the read ends merge with the batch-join
        # separator; a window over the junction must die either way.
        rs = reads("ACGTNNN", "NNNACGT", "ACNNGTACGT", "NNNNN")
        batched = jellyfish_count(rs, k=4, batch_bases=1)  # flush per read
        unbatched = jellyfish_count(rs, k=4, batch_bases=10**9)
        assert batched == unbatched
        assert self._dump_bytes(tmp_path, "a.fa", batched) == self._dump_bytes(
            tmp_path, "b.fa", unbatched
        )
        # Sanity: the N-free windows are still counted.
        assert count_of(batched, "ACGT") > 0

    def test_flush_mid_read_list(self, tmp_path):
        # batch_bases lands the flush between reads 2 and 3.
        rs = reads("ACGTACGTA", "GGGCCCAAA", "TTTACGTAC", "CCCGGGTTT")
        mid = jellyfish_count(rs, k=5, batch_bases=18)  # 2 reads per flush
        unbatched = jellyfish_count(rs, k=5, batch_bases=10**9)
        assert mid == unbatched
        assert self._dump_bytes(tmp_path, "a.fa", mid) == self._dump_bytes(
            tmp_path, "b.fa", unbatched
        )

    @pytest.mark.parametrize("batch_bases", [1, 7, 19, 10**9])
    def test_dump_bytes_invariant_across_batch_sizes(self, tmp_path, batch_bases):
        rs = reads("ACGTACGTAACCGGTT", "NNGGGTTTACGAN", "ACGT", "A")
        got = jellyfish_count(rs, k=5, batch_bases=batch_bases)
        baseline = jellyfish_count(rs, k=5, batch_bases=10**9)
        assert self._dump_bytes(tmp_path, f"g{batch_bases}.fa", got) == self._dump_bytes(
            tmp_path, f"b{batch_bases}.fa", baseline
        )


class TestDump:
    def test_roundtrip(self, tmp_path):
        counts = jellyfish_count(reads("ACGTACGTAA", "GGGTTTACGA"), k=5)
        path = tmp_path / "dump.fa"
        n = jellyfish_dump(counts, path)
        assert n == len(counts)
        loaded = read_counter_dump(path, canonical=True)
        assert loaded.k == 5
        assert loaded == counts

    def test_dump_format(self, tmp_path):
        counts = jellyfish_count(reads("AAAA"), k=3, canonical=False)
        path = tmp_path / "dump.fa"
        jellyfish_dump(counts, path)
        assert path.read_text() == ">2\nAAA\n"

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.fa"
        path.write_text("")
        with pytest.raises(SequenceError):
            read_counter_dump(path, canonical=True)

    def test_load_rejects_inconsistent_k(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text(">1\nAAA\n>1\nAAAA\n")
        with pytest.raises(SequenceError):
            read_counter_dump(path, canonical=True)

    def test_load_rejects_non_numeric_header(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text(">x\nAAA\n")
        with pytest.raises(SequenceError):
            read_counter_dump(path, canonical=True)
