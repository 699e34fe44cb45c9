"""Unit tests for the 2-bit k-mer codec."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import (
    MAX_K,
    canonical_code,
    canonical_kmers,
    decode_kmer,
    encode_kmer,
    kmer_array,
    kmer_set,
    revcomp_code,
    revcomp_codes,
)
from tests.helpers import counter_from_reads


class TestEncodeDecode:
    def test_known_value(self):
        assert encode_kmer("ACGT") == 0b00011011

    def test_roundtrip_various(self):
        for kmer in ["A", "ACGT", "TTTT", "GATTACA", "A" * MAX_K]:
            assert decode_kmer(encode_kmer(kmer), len(kmer)) == kmer

    def test_lexicographic_order_matches_numeric(self):
        kmers = sorted(["ACGT", "AAAA", "TTTT", "CGCG", "GTAC"])
        codes = [encode_kmer(k) for k in kmers]
        assert codes == sorted(codes)

    def test_rejects_overlong(self):
        with pytest.raises(SequenceError):
            encode_kmer("A" * (MAX_K + 1))

    def test_rejects_invalid_chars(self):
        with pytest.raises(SequenceError):
            encode_kmer("ACNT")

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(SequenceError):
            decode_kmer(256, 4)

    def test_decode_rejects_negative(self):
        with pytest.raises(SequenceError):
            decode_kmer(-1, 4)


class TestKmerArray:
    def test_sliding_windows(self):
        arr = kmer_array("ACGTA", 3)
        assert [decode_kmer(int(c), 3) for c in arr] == ["ACG", "CGT", "GTA"]

    def test_short_sequence_empty(self):
        assert kmer_array("AC", 3).size == 0

    def test_exact_length(self):
        arr = kmer_array("ACG", 3)
        assert arr.size == 1

    def test_n_windows_dropped(self):
        arr = kmer_array("ACGNACG", 3)
        # Only windows without N: ACG (pos 0) and ACG (pos 4)
        assert [decode_kmer(int(c), 3) for c in arr] == ["ACG", "ACG"]

    def test_all_n_empty(self):
        assert kmer_array("NNNNN", 3).size == 0

    def test_dtype(self):
        assert kmer_array("ACGTACGT", 4).dtype == np.uint64

    def test_count_matches_length(self):
        seq = "ACGT" * 20
        assert kmer_array(seq, 25).size == len(seq) - 25 + 1


class TestRevcomp:
    def test_scalar_matches_string(self):
        for kmer in ["ACGT", "AAAAAA", "GATTACA", "CCCGGG"]:
            k = len(kmer)
            expected = encode_kmer(reverse_complement(kmer))
            assert revcomp_code(encode_kmer(kmer), k) == expected

    def test_vector_matches_scalar(self):
        seq = "ACGTTGCAGTACGATCAGT"
        k = 5
        arr = kmer_array(seq, k)
        vec = revcomp_codes(arr, k)
        for code, rc in zip(arr.tolist(), vec.tolist()):
            assert revcomp_code(int(code), k) == int(rc)

    def test_involution_scalar(self):
        code = encode_kmer("GATTACA")
        assert revcomp_code(revcomp_code(code, 7), 7) == code

    def test_canonical_code_le_both(self):
        code = encode_kmer("TTTT")
        canon = canonical_code(code, 4)
        assert canon <= code
        assert canon <= revcomp_code(code, 4)

    def test_canonical_strand_invariant(self):
        seq = "ACGGTTACGATCGTAGCAT"
        k = 7
        fwd = set(canonical_kmers(seq, k).tolist())
        rev = set(canonical_kmers(reverse_complement(seq), k).tolist())
        assert fwd == rev


class TestSetsAndCounts:
    def test_kmer_set_distinct(self):
        s = kmer_set("AAAA", 2)
        assert s == {encode_kmer("AA")}

    def test_count_kmers_accumulates(self):
        counts = counter_from_reads(["AAAA", "AAA"], 2, canonical=False)
        assert (counts.codes.tolist(), counts.values.tolist()) == ([encode_kmer("AA")], [5])

    def test_empty_sequence_no_counts(self):
        assert len(counter_from_reads(["A"], 2)) == 0


class TestKmerArraysBatch:
    def _reference(self, seqs, k):
        from repro.seq.kmers import kmer_arrays_batch

        codes, seq_ids, positions = kmer_arrays_batch(seqs, k)
        off = 0
        for sid, seq in enumerate(seqs):
            ref = kmer_array(seq, k)
            n = ref.size
            assert np.array_equal(codes[off : off + n], ref), sid
            assert np.all(seq_ids[off : off + n] == sid), sid
            assert np.array_equal(positions[off : off + n], np.arange(n)), sid
            off += n
        assert off == codes.size == seq_ids.size == positions.size

    def test_matches_per_sequence_kmer_array(self):
        seqs = ["ACGTACGTA", "TTTTT", "ACGNNGTACA", "", "ACG", "NNNNNNN", "GATTACA"]
        for k in (1, 3, 5, 7):
            self._reference(seqs, k)

    def test_randomized(self):
        import random

        rng = random.Random(99)
        for k in (2, 8, 16, 25, 31):
            seqs = [
                "".join(rng.choice("ACGTN") for _ in range(rng.randint(0, 70)))
                for _ in range(40)
            ]
            self._reference(seqs, k)

    def test_empty_inputs(self):
        from repro.seq.kmers import kmer_arrays_batch

        codes, seq_ids, positions = kmer_arrays_batch([], 5)
        assert codes.size == seq_ids.size == positions.size == 0
        codes, _s, _p = kmer_arrays_batch(["AC", "G"], 5)
        assert codes.size == 0
