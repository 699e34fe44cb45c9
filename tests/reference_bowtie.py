"""Scalar seed-and-extend aligner: the oracle for ``repro.trinity.bowtie``.

This is the per-read loop the batched aligner replaced (``_try_align`` /
``_mismatches`` / ``resolve_orientation``), kept as the reference with one
correction: seed coordinates are window *starts* on both sides, where the
old loop used a window's rank among the N-filtered windows.  It shares no
code with ``repro.seq.kmers``: seeds are plain substrings in a dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.seq.sam import FLAG_REVERSE, FLAG_UNMAPPED, SamRecord
from repro.trinity.bowtie import BowtieConfig

Best = Optional[Tuple[int, int, int]]  # (contig idx, pos, mismatches)
SeedTable = Dict[str, List[Tuple[int, int]]]


def _clean_windows(seq: str, s: int) -> List[int]:
    """Start bases of the length-``s`` windows free of non-ACGT bases."""
    return [
        i for i in range(len(seq) - s + 1) if set(seq[i : i + s].upper()) <= set("ACGT")
    ]


def build_seed_table(contig_seqs: Sequence[str], s: int) -> SeedTable:
    seeds: SeedTable = {}
    for cidx, seq in enumerate(contig_seqs):
        for pos in _clean_windows(seq, s):
            seeds.setdefault(seq[pos : pos + s].upper(), []).append((cidx, pos))
    return seeds


def _mismatches(a: str, b: str, limit: int) -> int:
    """Hamming distance with early exit once past ``limit``."""
    mm = 0
    for x, y in zip(a, b):
        if x != y:
            mm += 1
            if mm > limit:
                return mm
    return mm


@dataclass
class Work:
    """What the scalar loop did: the counters ``BestHits`` reports."""

    n_seed_hits: int = 0
    n_verified: int = 0


def try_align(
    read_seq: str,
    contig_seqs: Sequence[str],
    seeds: SeedTable,
    cfg: BowtieConfig,
    work: Work,
) -> Best:
    """Best (contig, pos, mismatches) for one orientation, or None."""
    s = cfg.seed_len
    windows = _clean_windows(read_seq, s)
    if not windows:
        return None
    n_offsets = min(cfg.n_seed_offsets, len(windows))
    best: Best = None
    seen: set = set()
    for rank in np.linspace(0, len(windows) - 1, n_offsets).astype(int).tolist():
        off = windows[rank]
        for cidx, pos in seeds.get(read_seq[off : off + s].upper(), []):
            work.n_seed_hits += 1
            start = pos - off
            if (cidx, start) in seen:
                continue
            seen.add((cidx, start))
            contig_seq = contig_seqs[cidx]
            if start < 0 or start + len(read_seq) > len(contig_seq):
                continue
            work.n_verified += 1
            mm = _mismatches(
                read_seq, contig_seq[start : start + len(read_seq)], cfg.max_mismatches
            )
            if mm > cfg.max_mismatches:
                continue
            if best is None or (mm, cidx, start) < (best[2], best[0], best[1]):
                best = (cidx, start, mm)
    return best


def resolve_orientation(read: SeqRecord, fwd: Best, rev: Best, names: Sequence[str]) -> SamRecord:
    """The final SAM record from per-orientation bests (forward preferred
    on equal mismatches)."""
    choice = None
    flag = 0
    seq = read.seq
    if fwd is not None and (rev is None or fwd[2] <= rev[2]):
        choice = fwd
    elif rev is not None:
        choice = rev
        flag = FLAG_REVERSE
        seq = reverse_complement(read.seq)
    if choice is None:
        return SamRecord(read.name, FLAG_UNMAPPED, "*", 0, 0, "*", read.seq)
    cidx, start, mm = choice
    return SamRecord(
        qname=read.name, flag=flag, rname=names[cidx], pos=start + 1, mapq=255,
        cigar=f"{len(read.seq)}M", seq=seq, nm=mm,
    )


def reference_align(
    reads: Sequence[SeqRecord], contigs: Sequence[Contig], cfg: BowtieConfig
) -> Tuple[List[Tuple[Best, Best]], List[SamRecord], Work]:
    """Per-read ``(fwd, rev)`` bests, the SAM records, and the work done."""
    contig_seqs = [c.seq for c in contigs]
    names = [c.name for c in contigs]
    seeds = build_seed_table(contig_seqs, cfg.seed_len)
    work = Work()
    bests: List[Tuple[Best, Best]] = []
    records: List[SamRecord] = []
    for read in reads:
        fwd = try_align(read.seq, contig_seqs, seeds, cfg, work)
        rev = try_align(reverse_complement(read.seq), contig_seqs, seeds, cfg, work)
        bests.append((fwd, rev))
        records.append(resolve_orientation(read, fwd, rev, names))
    return bests, records, work
