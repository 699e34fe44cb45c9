"""Minimal SAM records and header.

The MPI Bowtie step in the paper produces one SAM file per node, merged
into a single file at the end of the job; in :mod:`repro.parallel.mpi_bowtie`
each rank writes its block's lines at its offset of the one file.  The
text is rendered from alignment columns
(:func:`repro.trinity.bowtie.format_hits`); a :class:`SamRecord` is one
line of it as fields (the parser that reads files back is the test
oracle in ``tests/reference_sam.py``: nothing in the pipeline reads SAM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import SequenceError

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


def sam_header(reference_lengths: Sequence[tuple]) -> List[str]:
    """Build @HD/@SQ header lines for ``(name, length)`` references."""
    lines = ["@HD\tVN:1.6\tSO:unsorted"]
    for name, length in reference_lengths:
        lines.append(f"@SQ\tSN:{name}\tLN:{length}")
    return lines
