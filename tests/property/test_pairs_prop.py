"""Property: seed-and-verify pair support equals the per-pair string scans.

For any component — isoforms sharing most of their sequence, mates taken
from either strand of any of them or from nowhere, shorter than the
31-base seed or one or two seeds long, of mixed lengths, longer than a
transcript, running past a text's end, duplicated as pairs or as mates,
with ``N`` or lower-case bases in mate or transcript, or no pairs at all
— ``reconcile_with_pairs`` must keep the same transcripts and report the
same ``PairFilterStats`` as ``tests/reference_pairs.py``, and
``_pair_supports`` (the count ``reconcile_with_pairs`` filters on) must
count the same pairs for every transcript.

Hand mutants of ``repro/trinity/pairs.py`` this file kills (each was
applied and failed here; ``tests/unit/test_pairs.py::TestExactOnAnyStrings``
pins the text-end cases deterministically): the byte verify skipped when the seed is the
whole mate (a lower-case base in a short mate or in the transcript under
it: codes fold case, ``str in str`` does not); the bounds filter off by
one (``<`` drops a mate ending on a transcript's last base — a suffix
mate, or a prefix mate on the other strand; ``<= len + 1`` lets a mate
run on into the first base of the text joined after it); only the
forward strand seeded; the string fallback dropped for mates whose seed
window holds an ``N``; "both mates" weakened to "either"; duplicated
pairs counted once; the code verify's last chunk dropped (a mate's tail
past its last whole seed unchecked: the "tail" mates); a lower-case mate verified by its
folded codes; the texts' exact codes taken where a window holds a
lower-case base.

``test_mate_index_equals_the_name_loop`` holds the vectorised mate join
(``repro.seq.records.mate_index``) to the per-name dict loop of
``tests/reference_pairs.py`` on generated names: repeated and lone
mates, ``lib/a`` and bare ``/1`` names, inner slashes, and bases that
differ only in a trailing NUL, a non-Latin character or their length.
Hand mutants it kills: the mate slot kept in the base's key (``x/1`` and
``x/2`` never meet); runs of any length taken as pairs (a repeated
``/1`` pairs); the zero padding not offset by one (``d`` and ``d\x00``
share a key); the base allowed empty (``/1`` and ``/2`` pair).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import reverse_complement
from repro.seq.records import SeqRecord, Transcript, mate_index, mate_owner
from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment
from repro.trinity.pairs import _pair_supports, reconcile_with_pairs
from tests import reference_pairs


_BASES = st.sampled_from(
    ["r1", "r2", "lib", "a/b", "a/b/c", "", "d", "d\x00", "é", "\U0001F600", "x" * 9]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_BASES, st.sampled_from(["/1", "/2", "/3", "/", "", "/a"])), max_size=14))
@example(
    [("", "/1"), ("", "/2"), ("d", "/1"), ("d\x00", "/2"), ("r1", "/1"), ("r1", "/1"), ("r1", "/2")]
)
def test_mate_index_equals_the_name_loop(parts):
    names = [base + suffix for base, suffix in parts]
    got = mate_index(names).tolist()
    assert all(names[a].endswith("/1") and names[b].endswith("/2") for a, b in got)
    assert sorted(sorted(row) for row in got) == sorted(
        reference_pairs.mate_pairs(names).values()
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_BASES, st.sampled_from(["/1", "/2", "", "/a"])), max_size=14),
    st.integers(1, 8),
)
def test_joining_at_each_owner_finds_every_pair_once(parts, nprocs):
    """Bowtie's distributed join: ``mate_index`` over the names each
    ``mate_owner`` receives finds exactly ``mate_index``'s pairs."""
    names = [base + suffix for base, suffix in parts]
    owner = mate_owner(names, nprocs)
    assert ((owner >= -1) & (owner < nprocs)).all()
    got = []
    for rank in range(nprocs):
        held = np.flatnonzero(owner == rank)
        got += held[mate_index([names[i] for i in held])].tolist()
    assert sorted(got) == sorted(mate_index(names).tolist())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_BASES, st.sampled_from(["/1", "/2", ""]), st.integers(-1, 2)), max_size=14
    ),
    st.sets(st.integers(0, 2)),
)
@example([("r1", "/1", 0), ("r1", "/2", 0), ("r1", "/1", 1), ("d", "/1", 0), ("d", "/2", 2)], {0})
def test_joining_an_owners_components_finds_their_pairs(parts, cids):
    """The back end's per-owner join: ``component_mates`` over some
    components' reads finds exactly the pairs of a join over all the
    reads whose two mates are routed to one of those components."""
    from repro.trinity.pairs import component_mates, repeated_names

    reads = [SeqRecord(base + suffix or "solo", "ACGT") for base, suffix, _c in parts]
    routed = {}
    for i, (_b, _s, comp) in enumerate(parts):
        if comp >= 0:
            routed.setdefault(comp, []).append(i)
    got = component_mates(reads, routed, cids, repeated_names(reads))
    comp_of = {i: c for c, held in routed.items() for i in held}
    want = {}
    for a, b in reference_pairs.mate_pairs(r.name for r in reads).values():
        if comp_of.get(a, -1) in cids and comp_of.get(a) == comp_of.get(b):
            want.setdefault(comp_of[a], []).append(sorted((a, b)))
    assert {c: sorted(sorted(row) for row in rows.tolist()) for c, rows in got.items()} == {
        c: sorted(rows) for c, rows in want.items()
    }


def _dna(lo, hi):
    return st.text(alphabet="ACGT", min_size=lo, max_size=hi)


@st.composite
def _spoiled(draw, seq):
    """``seq``, usually as is; sometimes with one base lower-cased or an ``N``."""
    kind = draw(st.sampled_from(["", "", "", "lower", "N"]))
    if not kind or not seq:
        return seq
    at = draw(st.integers(0, len(seq) - 1))
    return seq[:at] + (seq[at].lower() if kind == "lower" else "N") + seq[at + 1 :]


@st.composite
def components(draw):
    """(transcripts, reads, assignments) of one to three components."""
    transcripts, reads, assignments = [], [], []
    for comp in range(draw(st.integers(1, 3))):
        # Isoforms of one gene: shared exons, one skipped or swapped.
        exons = draw(st.lists(_dna(8, 45), min_size=2, max_size=4))
        isoforms = ["".join(exons)]
        for _ in range(draw(st.integers(0, 2))):
            keep = draw(st.lists(st.booleans(), min_size=len(exons), max_size=len(exons)))
            isoforms.append("".join(e for e, k in zip(exons, keep) if k) or exons[0])
        isoforms = [draw(_spoiled(seq)) for seq in isoforms]
        for i, seq in enumerate(isoforms):
            transcripts.append(Transcript(f"c{comp}_t{i}", seq, component=comp))

        def mate():
            source = draw(st.sampled_from(isoforms))
            kind = draw(st.sampled_from(
                ["inside", "inside", "prefix", "suffix", "long", "spill", "random", "chunked"]
                + ["tail"] + ["again"] * bool(drawn)
            ))
            if kind == "again":
                return draw(st.sampled_from(drawn))
            if kind == "random":
                seq = draw(_dna(0, 50))
            elif kind == "long":
                seq = source + draw(_dna(1, 5))
            elif kind == "spill":
                # The end of one text run on into the start of the text
                # after it in the kernel's joined bytes — the next
                # candidate, or the last one's own reverse complement:
                # contained in neither.
                after = draw(st.sampled_from([
                    isoforms[(isoforms.index(source) + 1) % len(isoforms)],
                    reverse_complement(source),
                ]))
                seq = source[-draw(st.integers(28, 40)) :] + after[: draw(st.integers(1, 2))]
            elif kind in ("chunked", "tail"):
                # Past one or two 31-base seeds: the verify's last chunk
                # overlaps the one before it; "tail" changes a base near
                # the end, behind the last whole seed.
                length = draw(st.integers(min(len(source), 31), min(len(source), 94)))
                at = draw(st.integers(0, len(source) - length))
                seq = source[at : at + length]
                if kind == "tail" and seq:
                    cut = len(seq) - 1 - draw(st.integers(0, min(len(seq) - 1, 12)))
                    seq = seq[:cut] + "ACGT"[("ACGT".find(seq[cut].upper()) + 1) % 4] + seq[cut + 1 :]
            else:
                length = draw(st.integers(1, max(1, min(len(source), 60))))
                at = {"prefix": 0, "suffix": len(source) - length}.get(
                    kind, draw(st.integers(0, len(source) - length))
                )
                seq = source[at : at + length]
            if draw(st.booleans()):
                seq = reverse_complement(seq)
            drawn.append(draw(_spoiled(seq)))
            return drawn[-1]

        drawn = []  # this component's mates so far: "again" repeats one

        pairs = [(mate(), mate()) for _ in range(draw(st.integers(0, 6)))]
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
        for left, right in pairs:
            base = f"p{len(reads)}"
            for suffix, seq in (("/1", left), ("/2", right)):
                assignments.append(ReadAssignment(len(reads), base + suffix, comp, 5, 0, 10))
                reads.append(SeqRecord(base + suffix, seq))
    return transcripts, reads, assignments


@settings(max_examples=100, deadline=None)
@given(components(), st.sampled_from([1, 2]))
def test_batched_reconciliation_equals_string_scans(component, min_support):
    transcripts, reads, assignments = component
    kept, stats = reconcile_with_pairs(transcripts, reads, assignments, min_support)
    want, want_stats = reference_pairs.reconcile_with_pairs(
        transcripts, reads, assignments, min_support
    )
    assert [(t.name, t.seq) for t in kept] == [(t.name, t.seq) for t in want]
    assert stats == want_stats
    by_component = reference_pairs.component_pairs(reads, assignments)
    for t in transcripts:
        pairs = by_component.get(t.component, [])
        assert _pair_supports([t.seq], pairs) == [reference_pairs.pair_support(t.seq, pairs)]
        # Each mate on its own, so a containment error cannot hide behind
        # the other mate of its pair missing.
        singles = [(mate, mate) for pair in pairs for mate in pair]
        assert _pair_supports([t.seq], singles) == [
            reference_pairs.pair_support(t.seq, singles)
        ]
