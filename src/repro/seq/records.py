"""Sequence record types shared across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.errors import SequenceError
from repro.seq.alphabet import sanitize
from repro.seq.kmer_index import sorted_rows


@dataclass(frozen=True)
class SeqRecord:
    """A named nucleotide sequence (one FASTA record).

    ``description`` holds anything after the first whitespace on the
    header line; Trinity uses it to carry provenance annotations.
    """

    name: str
    seq: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SequenceError("SeqRecord requires a non-empty name")

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def header(self) -> str:
        """The FASTA header line content (without the leading ``>``)."""
        return f"{self.name} {self.description}".strip()


def sanitize_reads(reads: Sequence[SeqRecord]) -> Sequence[SeqRecord]:
    """``reads`` through :func:`~repro.seq.alphabet.sanitize`, checked in
    one pass: ``reads`` itself if all is ACGTN, else only changed reads
    are copied.  A read holding a character outside ``ACGTNacgtn`` raises,
    named."""
    if not "".join([read.seq for read in reads]).encode().translate(None, b"ACGTN"):
        return reads
    clean = [(read, sanitize(read.seq, read.name)) for read in reads]
    return [read if seq == read.seq else replace(read, seq=seq) for read, seq in clean]


def _mate_names(names: Sequence[str]) -> tuple:
    """``names`` as one array of code points (``text``, name ``i`` ending at
    ``ends[i]``, ``lens[i]`` long) and the indices ``at`` of the names that
    end in a mate suffix after a non-empty base, ``second`` where ``/2``."""
    lens = np.fromiter(map(len, names), dtype=np.int64, count=len(names))
    text = np.frombuffer("".join(names).encode("utf-32-le"), dtype=np.uint32)
    ends = np.cumsum(lens)
    at = np.flatnonzero(lens > 2)
    tail = text[ends[at] - 1]
    keep = (text[ends[at] - 2] == ord("/")) & ((tail == ord("1")) | (tail == ord("2")))
    return lens, text, ends, at[keep], tail[keep] == ord("2")


def mate_owner(names: Sequence[str], nprocs: int) -> np.ndarray:
    """Per name, the one of ``nprocs`` owners its base hashes to (a
    position-weighted sum of its code points), or -1 for a name with no
    mate suffix: both mates of a pair, and every repeat of them, meet at
    one owner, so :func:`mate_index` over what each owner is sent finds
    every pair once."""
    lens, text, ends, at, _second = _mate_names(names)
    pos = np.arange(text.size) - np.repeat(ends - lens, lens)
    summed = np.concatenate(([0], np.cumsum((text + 1) * (2 * pos + 1))))
    start = ends[at] - lens[at]
    owner = np.full(len(names), -1, dtype=np.int64)
    owner[at] = (summed[start + lens[at] - 2] - summed[start]) % nprocs
    return owner


def mate_index(names: Sequence[str]) -> np.ndarray:
    """The complete mate pairs among ``names``: ``(n_pairs, 2)`` indices of
    each pair's ``base/1`` and ``base/2`` — exactly one of each, after a
    non-empty base (``lib/a``, ``/1`` and a repeated mate pair nothing).

    One array pass: a candidate's base is a row of its code points plus
    one (zero pads), led by its mate slot and viewed as uint64 words.
    Sorted, a base's rows are adjacent, ``/1`` first; a pair is a run of
    exactly those two.

    >>> mate_index(["r/2", "lib/a", "r/1", "x/1", "x/1", "y/2"]).tolist()
    [[2, 0]]
    """
    lens, text, ends, at, second = _mate_names(names)
    base = lens[at] - 2
    size = next(s for s in (1, 2, 4) if int(text.max(initial=0)) + 1 < 1 << (8 * s))
    per = 8 // size
    cols = np.arange((int(base.max(initial=0)) // per + 1) * per)
    inside = (cols >= 1) & (cols <= base[:, None])
    from_text = np.where(inside, (ends[at] - lens[at])[:, None] + cols - 1, 0)
    grid = np.where(inside, text[from_text] + 1, 0).astype(f"<u{size}")
    grid[:, 0] = second
    # The mate slot's word is the least significant key.
    at, second, *words = sorted_rows((at, second, *grid.view("<u8").T))
    words[0] = words[0] >> np.uint64(8 * size)  # drop the mate slot: the base alone
    runs = np.flatnonzero(np.r_[True, np.any([w[1:] != w[:-1] for w in words], axis=0), True])
    first = runs[:-1][np.diff(runs) == 2]
    first = first[~second[first] & second[first + 1]]
    return np.column_stack((at[first], at[first + 1]))


@dataclass(frozen=True)
class ReadPair:
    """A paired-end read.  ``right`` is ``None`` for single-end reads.

    The sugarbeet dataset in the paper mixes 79.2 M single-end/left reads
    with 50.6 M right reads, so single-end pairs are first-class here.
    """

    left: SeqRecord
    right: Optional[SeqRecord] = None

    @property
    def is_paired(self) -> bool:
        return self.right is not None


@dataclass
class Contig:
    """An assembled contig (Inchworm output).

    ``coverage`` is the mean k-mer abundance along the contig, which
    GraphFromFasta uses when deciding weld support.
    """

    name: str
    seq: str
    coverage: float = 0.0
    component: int = -1  # assigned by Chrysalis clustering; -1 = unassigned

    def __len__(self) -> int:
        return len(self.seq)

    def to_record(self) -> SeqRecord:
        desc = f"cov={self.coverage:.2f}"
        if self.component >= 0:
            desc += f" comp={self.component}"
        return SeqRecord(self.name, self.seq, desc)


@dataclass
class Transcript:
    """A reconstructed transcript (Butterfly output)."""

    name: str
    seq: str
    component: int
    path: tuple = field(default_factory=tuple)  # de Bruijn node ids traversed

    def __len__(self) -> int:
        return len(self.seq)

    def to_record(self) -> SeqRecord:
        return SeqRecord(self.name, self.seq, f"comp={self.component} len={len(self.seq)}")
