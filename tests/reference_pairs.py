"""Per-pair string scans: the oracle for ``repro.trinity.pairs``.

This is the containment test and the reconciliation loop the batched
seed-and-verify pass replaced, moved here unchanged: four ``str in str``
scans per (pair, transcript) — each mate, each strand — and one
``pair_support`` call per candidate transcript.  Case-exact, and defined
for any strings: empty mates occur everywhere, an ``N`` matches only an
``N``.  ``reconcile_with_pairs`` and the per-transcript counts it filters
on (``_pair_supports``) must return exactly what these do.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.seq.alphabet import reverse_complement
from repro.seq.records import SeqRecord, Transcript
from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment
from repro.trinity.pairs import PairFilterStats, component_pairs


def _occurs(seq: str, transcript: str) -> bool:
    return seq in transcript or reverse_complement(seq) in transcript


def pair_support(transcript_seq: str, pairs: Sequence[Tuple[str, str]]) -> int:
    """Number of pairs with both mates contained in the transcript."""
    return sum(
        1
        for left, right in pairs
        if _occurs(left, transcript_seq) and _occurs(right, transcript_seq)
    )


def reconcile_with_pairs(
    transcripts: Sequence[Transcript],
    reads: Sequence[SeqRecord],
    assignments: Sequence[ReadAssignment],
    min_support: int = 1,
) -> Tuple[List[Transcript], PairFilterStats]:
    """Drop pair-unsupported isoforms where a supported sibling exists."""
    by_comp = component_pairs(reads, assignments)
    grouped: Dict[int, List[Transcript]] = defaultdict(list)
    for t in transcripts:
        grouped[t.component].append(t)
    kept: List[Transcript] = []
    n_filtered_components = 0
    for comp, members in grouped.items():
        pairs = by_comp.get(comp)
        if not pairs:
            kept.extend(members)
            continue
        support = {t.name: pair_support(t.seq, pairs) for t in members}
        if max(support.values()) < min_support:
            kept.extend(members)
            continue
        survivors = [t for t in members if support[t.name] >= min_support]
        if len(survivors) < len(members):
            n_filtered_components += 1
        kept.extend(survivors)
    kept.sort(key=lambda t: (t.component, t.name))
    return kept, PairFilterStats(
        n_in=len(transcripts),
        n_out=len(kept),
        n_components_filtered=n_filtered_components,
    )
