"""Wire-format helpers mirroring the paper's packing scheme.

GraphFromFasta's loop 1 packs its vector of welding subsequences "into a
single sequence for MPI communication", exchanges sizes, then Allgatherv's
the packed payload; loop 2 does the same with integer pair indices, which
it holds as one ``(m, 2)`` array already.  These helpers implement that
packing so payload byte counts — which feed the network cost model — are
faithful.
"""

from __future__ import annotations

import pickle
from typing import List, Sequence, Tuple

import numpy as np


def pack_strings(strings: Sequence[str]) -> Tuple[bytes, np.ndarray]:
    """Pack strings into one byte buffer plus a length array.

    Returns ``(payload, lengths)`` where ``payload`` is the concatenation
    of the ASCII-encoded strings and ``lengths[i]`` is the byte length of
    string ``i``.
    """
    encoded = [s.encode("ascii") for s in strings]
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    return b"".join(encoded), lengths


def unpack_strings(payload: bytes, lengths: np.ndarray) -> List[str]:
    """Inverse of :func:`pack_strings`.

    Slice offsets come from one vectorised cumsum over the length table
    (the old running-``pos`` Python loop re-added every length scalar by
    scalar); only the unavoidable per-string slice+decode stays in Python.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    if total != len(payload):
        raise ValueError(
            f"length table sums to {total} but payload has {len(payload)} bytes"
        )
    starts = ends - lengths
    return [
        payload[s:e].decode("ascii")
        for s, e in zip(starts.tolist(), ends.tolist())
    ]


def nbytes_of(obj: object) -> int:
    """Estimate the wire size of a Python object.

    numpy arrays, bytes and str are sized exactly; everything else falls
    back to its pickle length (what a generic-object MPI layer would send).
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj)
    if obj is None:
        return 0
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
