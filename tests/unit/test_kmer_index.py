"""Unit tests for the sorted-array k-mer index subsystem."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.seq.kmer_index import (
    KmerCounter,
    KmerCounterBuilder,
    KmerIndex,
    KmerMap,
    decode_kmers,
    read_counter_dump,
    write_counter_dump,
)
from repro.seq.kmers import canonical_kmers, encode_kmer
from repro.seq.records import SeqRecord
from repro.trinity.jellyfish import jellyfish_count
from tests.helpers import counter_from_dict, counter_from_reads


def make_index(codes, values, k=8):
    return KmerIndex(k, np.asarray(codes, dtype=np.uint64), np.asarray(values, dtype=np.int64))


class TestKmerIndex:
    def test_scalar_interface(self):
        idx = make_index([2, 5, 9], [10, 20, 30])
        assert len(idx) == 3
        assert 5 in idx and 6 not in idx
        assert idx.get(9) == 30
        assert idx.get(7, default=-1) == -1

    def test_parallel_shape_enforced(self):
        with pytest.raises(SequenceError):
            make_index([1, 2], [1])

    def test_immutability(self):
        idx = make_index([1, 2], [3, 4])
        with pytest.raises(ValueError):
            idx.codes[0] = 9

    def test_find_and_lookup(self):
        idx = make_index([2, 5, 9], [10, 20, 30])
        pos, found = idx.find(np.array([5, 3, 9], dtype=np.uint64))
        assert found.tolist() == [True, False, True]
        assert pos[found].tolist() == [1, 2]
        assert [idx.get(code, -7) for code in (2, 4, 9)] == [10, -7, 30]

    def test_find_empty_index(self):
        idx = make_index([], [])
        pos, found = idx.find(np.array([1, 2], dtype=np.uint64))
        assert not found.any()
        assert pos.tolist() == [0, 0]

    def test_set_operations(self):
        a = make_index([1, 3, 5, 7], [0, 0, 0, 0])
        assert a.contains(np.array([5, 6, 1, 5], dtype=np.uint64)).tolist() == [
            True, False, True, True,
        ]

    def test_memory(self):
        idx = make_index([2, 5], [1, 9])
        assert idx.memory_bytes() == idx.codes.nbytes + idx.values.nbytes == 2 * 16

    def test_bucket_path_matches_searchsorted(self):
        # Large enough to trigger the bucket accelerator on both sides.
        rng = np.random.default_rng(3)
        for k in (13, 25, 31):
            codes = np.unique(
                rng.integers(0, 1 << (2 * k), 30000, dtype=np.uint64).astype(np.uint64)
            )
            idx = KmerIndex(k, codes, np.arange(codes.size, dtype=np.int64))
            query = rng.integers(0, 1 << (2 * k), 20000, dtype=np.uint64).astype(np.uint64)
            query[:8000] = codes[rng.integers(0, codes.size, 8000)]
            pos, found = idx.find(query)
            ref = np.searchsorted(codes, query)
            ref_found = (ref < codes.size) & (
                codes[np.minimum(ref, codes.size - 1)] == query
            )
            assert np.array_equal(found, ref_found)
            assert np.array_equal(pos[found], ref[found])


class TestKmerCounter:
    def test_from_pairs_merges(self):
        c = KmerCounter.from_pairs(
            np.array([9, 2, 9], dtype=np.uint64), np.array([1, 4, 2], dtype=np.int64), k=4,
            canonical=True,
        )
        assert c.codes.tolist() == [2, 9]
        assert c.values.tolist() == [4, 3]

    def test_filtered(self):
        c = counter_from_dict({3: 2, 1: 3, 2: 1}, k=4, canonical=True)
        f = c.filtered(2)
        assert f.codes.tolist() == [1, 3]
        assert c.filtered(1) is c

    def test_builder_streams(self):
        b = KmerCounterBuilder(4, canonical=True)
        b.add_codes(np.array([1, 1, 2], dtype=np.uint64))
        b.add_codes(np.array([2, 3], dtype=np.uint64))
        b.add_codes(np.empty(0, dtype=np.uint64))
        c = b.build()
        assert c.codes.tolist() == [1, 2, 3]
        assert c.values.tolist() == [2, 2, 1]

    def test_builder_add_pairs_merges_partials(self):
        # Pre-reduced (code, count) partials — per-partition np.unique
        # output — merge identically to feeding the raw streams.
        b = KmerCounterBuilder(4, canonical=True)
        b.add_pairs(
            np.array([1, 2], dtype=np.uint64), np.array([2, 1], dtype=np.int64)
        )
        b.add_pairs(
            np.array([2, 3], dtype=np.uint64), np.array([1, 1], dtype=np.int64)
        )
        b.add_pairs(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        c = b.build()
        assert c.codes.tolist() == [1, 2, 3]
        assert c.values.tolist() == [2, 2, 1]

    def test_builder_add_pairs_rejects_mismatched_shapes(self):
        b = KmerCounterBuilder(4, canonical=True)
        with pytest.raises(SequenceError):
            b.add_pairs(
                np.array([1, 2], dtype=np.uint64), np.array([1], dtype=np.int64)
            )

    def test_builder_memory_bytes_tracks_partials(self):
        b = KmerCounterBuilder(4, canonical=True)
        assert b.memory_bytes() == 0
        b.add_pairs(
            np.array([1, 2], dtype=np.uint64), np.array([2, 1], dtype=np.int64)
        )
        assert b.memory_bytes() == 2 * 8 + 2 * 8  # codes + counts nbytes

    def test_matches_dict_jellyfish_count(self):
        # KmerCounter built straight from canonical code streams must agree
        # with the production jellyfish_count on random read sets.
        rng = np.random.default_rng(11)
        k = 7
        reads = [
            SeqRecord(f"r{i}", "".join(rng.choice(list("ACGTN"), size=rng.integers(3, 60))))
            for i in range(80)
        ]
        counts = jellyfish_count(reads, k)
        expected = counter_from_reads((r.seq for r in reads), k, canonical=True)
        assert np.array_equal(counts.codes, expected.codes)
        assert np.array_equal(counts.values, expected.values)
        # ...and with a brute-force dict built the pre-index way.
        brute = {}
        for r in reads:
            for code in canonical_kmers(r.seq, k).tolist():
                brute[code] = brute.get(code, 0) + 1
        assert dict(zip(counts.codes.tolist(), counts.values.tolist())) == brute

    def test_memory_bytes_reports_backing_store(self):
        counts = jellyfish_count([SeqRecord("r", "ACGTACGTACGT")], 5)
        assert counts.memory_bytes() == 16 * len(counts)


class TestKmerMap:
    def test_min_id_tie_break(self):
        m = KmerMap.from_pairs(
            np.array([7, 3, 7, 7], dtype=np.uint64),
            np.array([5, 2, 1, 9], dtype=np.int64),
            k=4,
        )
        assert m.codes.tolist() == [3, 7]
        assert m.values.tolist() == [2, 1]

    def test_empty(self):
        m = KmerMap.empty(4)
        assert len(m) == 0
        assert m.codes.size == 0 and m.values.size == 0


class TestDumpSerialization:
    def test_decode_kmers_roundtrip(self):
        kmers = ["ACGT", "TTTT", "GATC"]
        codes = np.array([encode_kmer(m) for m in kmers], dtype=np.uint64)
        assert decode_kmers(codes, 4) == kmers

    def test_dump_roundtrip(self, tmp_path):
        c = counter_from_reads(["ACGTACGTTGCA", "TTGCAAC"], 5)
        path = tmp_path / "dump.fa"
        n = write_counter_dump(c, path)
        assert n == len(c)
        back = read_counter_dump(path, canonical=True)
        assert back.k == 5
        assert np.array_equal(back.codes, c.codes)
        assert np.array_equal(back.values, c.values)

    def test_malformed_dump_rejected(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text("ACGT\n")
        with pytest.raises(SequenceError):
            read_counter_dump(path, canonical=True)
        path.write_text(">notanumber\nACGT\n")
        with pytest.raises(SequenceError):
            read_counter_dump(path, canonical=True)

    @pytest.mark.parametrize("header", ["-3", "+5", "1_0", " 7"])
    def test_non_decimal_count_rejected(self, tmp_path, header):
        path = tmp_path / "bad.fa"
        path.write_text(f">{header}\nACGTA\n")
        with pytest.raises(SequenceError, match="not a positive count"):
            read_counter_dump(path, canonical=True)

    def test_zero_count_rejected(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text(">0\nACGTA\n")
        with pytest.raises(SequenceError, match="not a positive count"):
            read_counter_dump(path, canonical=True)

    def test_repeated_kmer_rejected(self, tmp_path):
        """Two records for one k-mer are not summed into one."""
        path = tmp_path / "bad.fa"
        path.write_text(">3\nACGTA\n>4\nACGTA\n")
        with pytest.raises(SequenceError, match="repeated"):
            read_counter_dump(path, canonical=True)
