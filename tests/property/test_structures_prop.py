"""Property-based tests for union-find, FASTA round-trips, SW and packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import pack_strings, unpack_strings
from repro.seq.fasta import parse_fasta
from repro.seq.records import SeqRecord
from repro.trinity.chrysalis.components import build_components
from repro.trinity.chrysalis.graph_from_fasta import pair_array, unique_pairs
from repro.validation.smith_waterman import sw_align, sw_score

dna = st.text(alphabet="ACGT", min_size=1, max_size=60)


@given(
    st.integers(min_value=1, max_value=40),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
)
def test_components_partition_and_canonical(n, raw_pairs):
    pairs = [(a % n, b % n) for a, b in raw_pairs]
    comps = build_components(n, pairs)
    members = sorted(m for c in comps for m in c.members)
    assert members == list(range(n))  # exact partition
    for c in comps:
        assert c.id == min(c.members)
    # order-invariance
    assert build_components(n, list(reversed(pairs))) == comps


@given(st.lists(st.tuples(st.text(alphabet="abcXYZ09", min_size=1, max_size=8), dna), max_size=10))
def test_fasta_write_parse_roundtrip(items):
    # unique names
    records = [SeqRecord(f"{name}_{i}", seq) for i, (name, seq) in enumerate(items)]
    lines = []
    for r in records:
        lines.append(f">{r.header}")
        lines.append(r.seq)
    assert list(parse_fasta(lines)) == records


@given(st.lists(st.text(alphabet="ACGT", max_size=30), max_size=20))
def test_pack_strings_roundtrip(strings):
    payload, lengths = pack_strings(strings)
    assert unpack_strings(payload, lengths) == strings
    # Offsets are pure cumsum state: zero-length strings contribute empty
    # slices without shifting their neighbours.
    assert int(lengths.sum()) == len(payload)


@given(
    st.lists(st.text(alphabet="ACGT", max_size=30), max_size=20),
    st.integers(min_value=1, max_value=8),
)
def test_unpack_strings_rejects_truncated_payload(strings, cut):
    payload, lengths = pack_strings(strings)
    with pytest.raises(ValueError, match="payload"):
        unpack_strings(payload + b"A" * cut, lengths)
    if payload:
        with pytest.raises(ValueError, match="payload"):
            unpack_strings(payload[:-1], lengths)


_pairs = st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9)), max_size=50)


@given(_pairs, _pairs)
def test_pack_pairs_roundtrip(pairs, extra):
    """Weld pairs packed as ``(m, 2)`` arrays and the scaffold pairs come
    back as the sorted set union the tuple sets gave, scaffold pairs
    ordered ``(min, max)``."""
    want = sorted(set(pairs) | {(min(a, b), max(a, b)) for a, b in extra})
    half = len(pairs) // 2
    assert unique_pairs([pair_array(pairs[:half]), pair_array(pairs[half:])], extra) == want


@settings(max_examples=40, deadline=None)
@given(dna, dna)
def test_sw_symmetry_of_score(a, b):
    assert sw_score(a, b) == sw_score(b, a)


@settings(max_examples=40, deadline=None)
@given(dna)
def test_sw_self_alignment_perfect(seq):
    aln = sw_align(seq, seq)
    assert aln.identity == 1.0
    assert aln.query_span == (0, len(seq))


@settings(max_examples=40, deadline=None)
@given(dna, dna)
def test_sw_align_score_matches_score_only(a, b):
    assert sw_align(a, b).score == sw_score(a, b)


@settings(max_examples=30, deadline=None)
@given(dna, st.integers(0, 3))
def test_sw_substring_full_coverage(seq, offset):
    if offset >= len(seq):
        return
    sub = seq[offset:]
    aln = sw_align(sub, seq)
    assert aln.query_coverage(len(sub)) == 1.0
    assert aln.identity == 1.0
