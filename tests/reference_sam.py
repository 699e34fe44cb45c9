"""Per-record SAM text: the oracle for ``repro.trinity.bowtie.format_hits``.

This is the writer the columnar formatter replaced, moved here unchanged:
``SamRecord.to_line`` (now :func:`sam_line`), ``format_sam`` and
``write_sam``, one ``SamRecord`` per read joined field by field.  The
reader the tests parse files back with, ``SamRecord.from_line`` (now
:func:`parse_sam_line`) and ``read_sam``, moved here too: nothing in the
pipeline reads SAM.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from repro.errors import SequenceError
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


def parse_sam_line(line: str) -> SamRecord:
    """One SAM alignment line back as its record."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) < 10:
        raise SequenceError(f"malformed SAM line: {line!r}")
    nm = -1
    for tag in parts[11:]:
        if tag.startswith("NM:i:"):
            nm = int(tag[5:])
            break
    return SamRecord(
        qname=parts[0],
        flag=int(parts[1]),
        rname=parts[2],
        pos=int(parts[3]),
        mapq=int(parts[4]),
        cigar=parts[5],
        seq=parts[9],
        nm=nm,
    )


def read_sam(path: Union[str, Path]) -> Iterator[SamRecord]:
    """Yield alignment records, skipping header lines."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("@") or not line.strip():
                continue
            yield parse_sam_line(line)
