"""Streaming FASTA reader/writer.

The Trinity modules exchange data through files (the paper stresses this),
so the loaders are streaming: :func:`iter_fasta` never holds more than one
record in memory, which is what lets ReadsToTranscripts keep its streaming
reads model.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.errors import FastaFormatError
from repro.seq.records import SeqRecord

PathLike = Union[str, Path]


def open_text(path: PathLike, mode: str = "r"):
    """Open a (possibly gzip-compressed) text file.

    RNA-seq inputs routinely arrive gzipped; compression is selected by
    the ``.gz`` suffix, transparently for readers and writers.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def iter_fasta(path: PathLike) -> Iterator[SeqRecord]:
    """Yield :class:`SeqRecord` objects from a FASTA file, streaming.

    ``.gz`` paths are decompressed on the fly.
    """
    with open_text(path) as fh:
        yield from parse_fasta(fh)


def parse_fasta(fh: Iterable[str]) -> Iterator[SeqRecord]:
    """Parse FASTA records from an iterable of lines."""
    name = None
    desc = ""
    chunks: List[str] = []
    lineno = 0
    for line in fh:
        lineno += 1
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield _emit(name, desc, chunks, lineno)
            header = line[1:].strip()
            if not header:
                raise FastaFormatError(f"empty FASTA header at line {lineno}")
            parts = header.split(None, 1)
            name = parts[0]
            desc = parts[1] if len(parts) > 1 else ""
            chunks = []
        else:
            if name is None:
                raise FastaFormatError(f"sequence data before any header at line {lineno}")
            chunks.append(line.strip())
    if name is not None:
        yield _emit(name, desc, chunks, lineno)


def _emit(name: str, desc: str, chunks: List[str], lineno: int) -> SeqRecord:
    seq = "".join(chunks)
    if not seq:
        raise FastaFormatError(f"record {name!r} has no sequence (near line {lineno})")
    return SeqRecord(name, seq, desc)


def read_fasta(path: PathLike) -> List[SeqRecord]:
    """Read a whole FASTA file into memory (GraphFromFasta-style)."""
    return list(iter_fasta(path))


def format_fasta(records: Iterable[SeqRecord], width: int = 60) -> str:
    """Records as FASTA text: a ``>header`` line, then ``width``-base lines."""
    if width <= 0:
        raise ValueError(f"line width must be positive, got {width}")
    lines = []
    for rec in records:
        lines.append(f">{rec.header}\n")
        lines.extend(f"{rec.seq[i : i + width]}\n" for i in range(0, len(rec.seq), width))
    return "".join(lines)


def write_fasta(path: PathLike, records: Iterable[SeqRecord], width: int = 60) -> int:
    """Write :func:`format_fasta` of ``records``; returns the number written."""
    records = list(records)
    text = format_fasta(records, width)
    with open_text(path, "w") as fh:
        fh.write(text)
    return len(records)
