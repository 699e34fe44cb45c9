"""DNA alphabet primitives.

The canonical alphabet is ``ACGT`` with 2-bit codes A=0, C=1, G=2, T=3
(the ordering Jellyfish uses).  Ambiguity codes are not modelled: k-mer
extraction skips every window holding a non-ACGT base, mirroring
Trinity's behaviour of discarding k-mers containing non-ACGT characters.
Both drivers pass their reads through :func:`sanitize` before any stage
runs (``repro.seq.records.sanitize_reads``), so soft-masked (lower-case)
bases count as the bases they mask and anything outside ``ACGTN`` is
rejected before the assembly stages see it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SequenceError

#: The DNA bases in 2-bit code order.
BASES = "ACGT"

#: base character -> 2-bit code
BASE_TO_CODE = {b: i for i, b in enumerate(BASES)}

#: 2-bit code -> base character
CODE_TO_BASE = np.frombuffer(BASES.encode(), dtype=np.uint8)

# Translation table for complementing a DNA string (bytes-level, fast).
_COMPLEMENT_TABLE = bytes.maketrans(b"ACGTacgtNn", b"TGCAtgcaNn")

# uint8 lookup: ASCII byte -> 2-bit code, 255 for invalid.
ASCII_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _b, _c in BASE_TO_CODE.items():
    ASCII_TO_CODE[ord(_b)] = _c
    ASCII_TO_CODE[ord(_b.lower())] = _c


def reverse_complement(seq: str) -> str:
    """Reverse-complement a DNA string (``N`` is preserved).

    >>> reverse_complement("ACCGT")
    'ACGGT'
    """
    return seq.encode().translate(_COMPLEMENT_TABLE)[::-1].decode()


def sanitize(seq: str, name: str = "") -> str:
    """Upper-case ``seq`` and verify it is ACGTN; raise otherwise.

    ``N`` characters are allowed through — k-mer extraction skips windows
    containing them — but anything else is rejected loudly, naming the
    record ``name`` if given.
    """
    up = seq.upper()
    allowed = set("ACGTN")
    bad = set(up) - allowed
    if bad:
        where = f" of read {name!r}" if name else ""
        raise SequenceError(f"invalid characters in sequence{where}: {sorted(bad)!r}")
    return up


def encode_bases(seq: str) -> np.ndarray:
    """Encode a DNA string to a uint8 code array (255 marks non-ACGT)."""
    raw = np.frombuffer(seq.upper().encode(), dtype=np.uint8)
    return ASCII_TO_CODE[raw]
