"""Per-pair string scans: the oracle for ``repro.trinity.pairs``.

This is the containment test and the reconciliation loop the batched
seed-and-verify pass replaced, moved here unchanged: four ``str in str``
scans per (pair, transcript) — each mate, each strand — and one
``pair_support`` call per candidate transcript.  Case-exact, and defined
for any strings: empty mates occur everywhere, an ``N`` matches only an
``N``.  ``reconcile_with_pairs`` and the per-transcript counts it filters
on (``_pair_supports``) must return exactly what these do.

``contained_by_bytes`` is the byte-verify pass the chunk codes replaced,
kept as the kernel benchmark's baseline.

The per-name mate join is here too (``mate_key`` / ``mate_pairs`` /
``mate_groups`` / ``component_pairs``): the dict loop that
``repro.seq.records.mate_index`` replaced, and the oracle it is held to.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import MAX_K, kmer_windows_batch
from repro.seq.records import SeqRecord, Transcript
from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment
from repro.trinity.bowtie import _VERIFY_BASES
from repro.trinity.pairs import PairFilterStats


def mate_key(name: str) -> Optional[Tuple[str, int]]:
    """``(base, 1 | 2)`` of a paired-end read name, else None: only a final
    ``/1`` or ``/2`` is a mate suffix."""
    base, _slash, mate = name.rpartition("/")
    return (base, int(mate)) if base and mate in ("1", "2") else None


def mate_pairs(names: Iterable[str]) -> Dict[str, List[int]]:
    """Indices into ``names`` of the two mates of every complete pair,
    keyed by base name: exactly one ``base/1`` and one ``base/2``."""
    slots: Dict[str, List[int]] = {}  # base -> [index of /1, of /2]; -1 unseen, -2 repeated
    for i, name in enumerate(names):
        key = mate_key(name)
        if key is not None:
            slot = slots.setdefault(key[0], [-1, -1])
            slot[key[1] - 1] = i if slot[key[1] - 1] == -1 else -2
    return {base: sorted(slot) for base, slot in slots.items() if min(slot) >= 0}


def mate_groups(reads: Sequence[SeqRecord]) -> Dict[str, List[int]]:
    """Read indices of every mate pair ``x/1``, ``x/2``, by base name."""
    return mate_pairs(rec.name for rec in reads)


def component_pairs(
    reads: Sequence[SeqRecord], assignments: Sequence[ReadAssignment]
) -> Dict[int, List[Tuple[str, str]]]:
    """Mate-pair sequences per component (both mates assigned to it)."""
    comp_of = {a.read_index: a.component for a in assignments}
    out: Dict[int, List[Tuple[str, str]]] = defaultdict(list)
    for a, b in mate_groups(reads).values():
        ca, cb = comp_of.get(a, -1), comp_of.get(b, -1)
        if ca >= 0 and ca == cb:
            out[ca].append((reads[a].seq, reads[b].seq))
    return dict(out)


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


def contained_by_bytes(mates: Sequence[str], texts: Sequence[str], windows: dict) -> np.ndarray:
    """The seed-and-verify pass the chunk codes replaced: seeds found by
    ``kmer_windows_batch``, the texts' windows sorted by ``argsort``, and
    every placement compared byte by byte (the timing baseline of
    ``benchmarks/test_bench_kernels.py``; same result as ``str in str``)."""
    out = np.zeros((len(mates), len(texts)), dtype=bool)
    text_bytes = np.frombuffer("".join(texts).encode(), dtype=np.uint8)
    text_len = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    text_at = np.cumsum(text_len) - text_len
    by_length: Dict[int, List[int]] = defaultdict(list)
    for i, mate in enumerate(mates):
        by_length[len(mate)].append(i)
    for length, members in by_length.items():
        group = np.asarray(members)
        seed_len = min(length, MAX_K)
        seeded = np.empty(0, dtype=np.int64)
        if seed_len:
            seeds, seeded, _ = kmer_windows_batch([mates[i][:seed_len] for i in members], seed_len)
        for i in np.delete(group, seeded).tolist():
            out[i] = [mates[i] in text for text in texts]
        if seeded.size == 0:
            continue
        if seed_len not in windows:
            codes, text, start = kmer_windows_batch(texts, seed_len)
            order = np.argsort(codes)
            windows[seed_len] = codes[order], text[order], start[order]
        codes, text, start = windows[seed_len]
        lo = np.searchsorted(codes, seeds, side="left")
        n = np.searchsorted(codes, seeds, side="right") - lo
        entry = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))
        mate, text, start = np.repeat(seeded, n), text[entry], start[entry]
        inside = start + length <= text_len[text]
        mate, text, start = mate[inside], text[inside], text_at[text[inside]] + start[inside]
        mate_bytes = np.frombuffer(
            "".join(mates[i] for i in members).encode(), dtype=np.uint8
        ).reshape(len(members), length)
        along = np.arange(length)
        block = max(1, _VERIFY_BASES // length)
        for a in range(0, mate.size, block):
            part = slice(a, a + block)
            same = (text_bytes[start[part, None] + along] == mate_bytes[mate[part]]).all(axis=1)
            out[group[mate[part][same]], text[part][same]] = True
    return out
