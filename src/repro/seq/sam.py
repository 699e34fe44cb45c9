"""Minimal SAM records, header and reader.

The MPI Bowtie step in the paper produces one SAM file per node, merged
into a single file at the end of the job; in :mod:`repro.parallel.mpi_bowtie`
each rank writes its block's lines at its offset of the one file.  The
text is rendered from alignment columns
(:func:`repro.trinity.bowtie.format_hits`); a :class:`SamRecord` is what
:func:`read_sam` parses a line back into.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Union

from repro.errors import SequenceError

PathLike = Union[str, Path]

FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10


@dataclass(frozen=True)
class SamRecord:
    """One SAM alignment line (subset of fields Bowtie emits)."""

    qname: str
    flag: int
    rname: str
    pos: int  # 1-based leftmost position; 0 for unmapped
    mapq: int
    cigar: str
    seq: str
    nm: int = -1  # edit distance (NM tag); -1 = not recorded

    def __post_init__(self) -> None:
        if self.pos < 0:
            raise SequenceError(f"SAM pos must be >= 0, got {self.pos}")

    @property
    def is_unmapped(self) -> bool:
        return bool(self.flag & FLAG_UNMAPPED)

    @classmethod
    def from_line(cls, line: str) -> "SamRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 10:
            raise SequenceError(f"malformed SAM line: {line!r}")
        nm = -1
        for tag in parts[11:]:
            if tag.startswith("NM:i:"):
                nm = int(tag[5:])
                break
        return cls(
            qname=parts[0],
            flag=int(parts[1]),
            rname=parts[2],
            pos=int(parts[3]),
            mapq=int(parts[4]),
            cigar=parts[5],
            seq=parts[9],
            nm=nm,
        )


def sam_header(reference_lengths: Sequence[tuple]) -> List[str]:
    """Build @HD/@SQ header lines for ``(name, length)`` references."""
    lines = ["@HD\tVN:1.6\tSO:unsorted"]
    for name, length in reference_lengths:
        lines.append(f"@SQ\tSN:{name}\tLN:{length}")
    return lines


def read_sam(path: PathLike) -> Iterator[SamRecord]:
    """Yield alignment records, skipping header lines."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("@") or not line.strip():
                continue
            yield SamRecord.from_line(line)
