"""Sequence record types shared across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SequenceError


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


def mate_key(name: str) -> Optional[Tuple[str, int]]:
    """``(base, 1 | 2)`` of a paired-end read name, else None.

    Only a final ``/1`` or ``/2`` is a mate suffix: ``lib/a`` and ``solo``
    name no mate.

    >>> mate_key("read7/2"), mate_key("lib/a"), mate_key("solo")
    (('read7', 2), None, None)
    """
    base, _slash, mate = name.rpartition("/")
    return (base, int(mate)) if base and mate in ("1", "2") else None


def mate_pairs(names: Iterable[str]) -> Dict[str, List[int]]:
    """Indices into ``names`` of the two mates of every complete pair,
    keyed by base name, in input order.

    A pair is exactly one ``base/1`` and one ``base/2``: records that
    merely share a prefix, or repeat a mate, pair with nothing.
    """
    slots: Dict[str, List[int]] = {}  # base -> [index of /1, of /2]; -1 unseen, -2 repeated
    for i, name in enumerate(names):
        key = mate_key(name)
        if key is not None:
            slot = slots.setdefault(key[0], [-1, -1])
            slot[key[1] - 1] = i if slot[key[1] - 1] == -1 else -2
    return {base: sorted(slot) for base, slot in slots.items() if min(slot) >= 0}


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
