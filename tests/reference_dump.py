"""Per-record Jellyfish dump text: the oracle for
``repro.seq.kmer_index.format_counter_dump``.

This is the formatter the vectorised renderer replaced, moved here
unchanged but for the decode: one f-string per record, the k-mer
unpacked two bits at a time by ``decode_kmer`` and the count by ``str``.
"""

from __future__ import annotations

from typing import Sequence

from repro.seq.kmers import decode_kmer


def counter_dump(codes: Sequence[int], values: Sequence[int], k: int) -> bytes:
    """``>count\\nkmer\\n`` per (code, count), in the given order."""
    return "".join(
        f">{count}\n{decode_kmer(code, k)}\n" for code, count in zip(codes, values)
    ).encode("ascii")
