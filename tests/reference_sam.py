"""Per-record SAM text: the oracle for ``repro.trinity.bowtie.format_hits``.

This is the writer the columnar formatter replaced, moved here unchanged:
``SamRecord.to_line`` (now :func:`sam_line`), ``format_sam`` and
``write_sam``, one ``SamRecord`` per read joined field by field.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence, Union

from repro.seq.sam import SamRecord


def sam_line(rec: SamRecord) -> str:
    """One SAM alignment line (no newline)."""
    fields = [
        rec.qname,
        str(rec.flag),
        rec.rname,
        str(rec.pos),
        str(rec.mapq),
        rec.cigar,
        "*",  # RNEXT
        "0",  # PNEXT
        "0",  # TLEN
        rec.seq,
        "*",  # QUAL
    ]
    if rec.nm >= 0:
        fields.append(f"NM:i:{rec.nm}")
    return "\t".join(fields)


def format_sam(records: Iterable[SamRecord], header: Sequence[str] = ()) -> str:
    """Header lines then one line per alignment record, as SAM text."""
    return "".join(f"{line}\n" for line in chain(header, map(sam_line, records)))


def write_sam(
    path: Union[str, Path], records: Iterable[SamRecord], header: Sequence[str] = ()
) -> int:
    """Write :func:`format_sam` of ``records``; returns the record count."""
    records = list(records)
    Path(path).write_text(format_sam(records, header), encoding="ascii")
    return len(records)
