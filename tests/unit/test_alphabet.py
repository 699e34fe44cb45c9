"""Unit tests for repro.seq.alphabet."""

import pytest

from repro.errors import SequenceError
from repro.seq.alphabet import (
    ASCII_TO_CODE,
    BASES,
    encode_bases,
    reverse_complement,
    sanitize,
)
from tests.helpers import is_valid_dna


class TestComplement:
    def test_all_bases(self):
        assert [reverse_complement(b) for b in "ACGT"] == ["T", "G", "C", "A"]

    def test_lowercase(self):
        assert reverse_complement("a") == "t"


class TestReverseComplement:
    def test_simple(self):
        assert reverse_complement("ACCGT") == "ACGGT"

    def test_empty(self):
        assert reverse_complement("") == ""

    def test_involution(self):
        seq = "ACGTACGTTGCA"
        assert reverse_complement(reverse_complement(seq)) == seq

    def test_preserves_n(self):
        assert reverse_complement("ANT") == "ANT"

    def test_palindrome(self):
        # ACGT is its own reverse complement
        assert reverse_complement("ACGT") == "ACGT"

    def test_single_base(self):
        assert reverse_complement("G") == "C"


class TestValidation:
    def test_valid(self):
        assert is_valid_dna("ACGTACGT")

    def test_empty_is_valid(self):
        assert is_valid_dna("")

    def test_lowercase_invalid(self):
        assert not is_valid_dna("acgt")

    def test_n_invalid(self):
        assert not is_valid_dna("ACGN")

    def test_sanitize_uppercases(self):
        assert sanitize("acgt") == "ACGT"

    def test_sanitize_allows_n(self):
        assert sanitize("ACGN") == "ACGN"

    def test_sanitize_rejects_garbage(self):
        with pytest.raises(SequenceError):
            sanitize("ACG-T")


class TestCodec:
    def test_encode_order(self):
        codes = encode_bases("ACGT")
        assert codes.tolist() == [0, 1, 2, 3]

    def test_encode_marks_invalid(self):
        assert encode_bases("ANT").tolist()[1] == 255

    def test_roundtrip(self):
        seq = "GATTACA"
        assert "".join(BASES[c] for c in encode_bases(seq).tolist()) == seq

    def test_lowercase_maps_to_same_code(self):
        for b in BASES:
            assert ASCII_TO_CODE[ord(b)] == ASCII_TO_CODE[ord(b.lower())]
