"""Property: seed-and-verify pair support equals the per-pair string scans.

For any component — isoforms sharing most of their sequence, mates taken
from either strand of any of them or from nowhere, shorter than the
31-base seed, of mixed lengths, longer than a transcript, duplicated,
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
forward strand indexed; the string fallback dropped for mates whose seed
window holds an ``N``; "both mates" weakened to "either"; duplicated
pairs counted once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import reverse_complement
from repro.seq.records import SeqRecord, Transcript
from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment
from repro.trinity.pairs import _pair_supports, component_pairs, reconcile_with_pairs
from tests import reference_pairs


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
            kind = draw(
                st.sampled_from(["inside", "inside", "prefix", "suffix", "long", "spill", "random"])
            )
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
            else:
                length = draw(st.integers(1, max(1, min(len(source), 60))))
                at = {"prefix": 0, "suffix": len(source) - length}.get(
                    kind, draw(st.integers(0, len(source) - length))
                )
                seq = source[at : at + length]
            if draw(st.booleans()):
                seq = reverse_complement(seq)
            return draw(_spoiled(seq))

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
    by_component = component_pairs(reads, assignments)
    for t in transcripts:
        pairs = by_component.get(t.component, [])
        assert _pair_supports([t.seq], pairs) == [reference_pairs.pair_support(t.seq, pairs)]
        # Each mate on its own, so a containment error cannot hide behind
        # the other mate of its pair missing.
        singles = [(mate, mate) for pair in pairs for mate in pair]
        assert _pair_supports([t.seq], singles) == [
            reference_pairs.pair_support(t.seq, singles)
        ]
