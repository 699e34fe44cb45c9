"""Per-rank output merging (paper SS:III.C).

The shipped strategy is a plain ``cat`` of the per-process files by the
master ("There is a final command at the end by the master node which
combines the multiple files into a single file with a simple cat
command"); the alternative the paper mentions — gathering the data at the
root over MPI and writing once — is costed by the ``abl-merge`` model in
:mod:`repro.experiments.ablations`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

PathLike = Union[str, Path]


def cat_files(out_path: PathLike, part_paths: Iterable[PathLike]) -> int:
    """Byte-level concatenation; returns total bytes written."""
    total = 0
    with open(out_path, "wb") as out:
        for part in part_paths:
            data = Path(part).read_bytes()
            if data and not data.endswith(b"\n"):
                data += b"\n"
            out.write(data)
            total += len(data)
    return total

