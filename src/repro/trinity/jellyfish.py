"""Jellyfish: fast k-mer counting with dump-to-file formats.

Counts k-mers over both strands (each k-mer and its reverse complement are
counted as the same canonical key, Jellyfish's ``-C`` mode, which is how
the Trinity workflow invokes it for non-strand-specific data) and writes
the Trinity-consumed dump: a FASTA-like text file where each record's
header is the count and the body is the k-mer (``jellyfish dump`` default
format).

The in-memory representation is a :class:`repro.seq.kmer_index.KmerCounter`
— the shared sorted-array k-mer index, which carries its strand mode —
so downstream consumers (Inchworm, QuantifyGraph) probe it with batched
``searchsorted`` lookups and read from it how its codes were made.
Batch consumers read the index arrays, scalar consumers use ``get``.
``batch_bases`` bounds what one sort + count reduces; inside a batch the
window pack runs a cache-sized block
(:data:`repro.seq.kmers.PACK_BLOCK_BASES`) at a time, which halves its
cost per base at every input size measured (DESIGN.md SS:5.19).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from repro.errors import PipelineError
from repro.seq.kmer_index import (
    KmerCounter,
    KmerCounterBuilder,
    write_counter_dump,
)
from repro.seq.kmers import (
    base_blocks,
    canonical_kmers,
    kmer_array,
)
from repro.seq.records import SeqRecord

PathLike = Union[str, Path]


@dataclass(frozen=True)
class JellyfishConfig:
    """Counting parameters (``jellyfish count`` flags).

    ``canonical`` is Jellyfish's ``-C`` (both-strand) mode;
    ``batch_bases`` bounds how many read bases one vectorised encoding
    pass joins — purely a working-set knob, output-invariant (a tested
    property of :func:`jellyfish_count`).
    """

    k: int = 25
    canonical: bool = True
    batch_bases: int = 4_000_000

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise PipelineError(f"k must be positive, got {self.k}")
        if self.batch_bases <= 0:
            raise PipelineError(f"batch_bases must be positive, got {self.batch_bases}")


def jellyfish_count(
    reads: Iterable[SeqRecord], k: int, canonical: bool = True, batch_bases: int = 4_000_000
) -> KmerCounter:
    """``jellyfish count``: count k-mers across all reads.

    Batched vectorisation: reads are joined with ``N`` separators (which
    no valid k-mer window can span) so each batch needs a single packing
    pass; per-batch partial (code, count) pairs are merged by the
    :class:`KmerCounterBuilder`'s final sort + segmented sum.  The table
    carries ``canonical``, the strand mode its codes were made in.
    """
    builder = KmerCounterBuilder(k, canonical)
    for batch in base_blocks((rec.seq for rec in reads), batch_bases):
        builder.add_codes(_batch_codes(batch, k, canonical))
    return builder.build()


def _batch_codes(seqs: Sequence[str], k: int, canonical: bool) -> np.ndarray:
    """K-mer codes of ``seqs`` in read order, packed a cache-sized block at
    a time: the blocks' arrays concatenated are the one-call array."""
    encode = canonical_kmers if canonical else kmer_array
    parts = [encode("N".join(block), k) for block in base_blocks(seqs)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)


def jellyfish_dump(counts: KmerCounter, path: PathLike) -> int:
    """``jellyfish dump``: write counts as FASTA (header=count, body=kmer).

    Returns the number of records written.  The dump can be "extremely
    voluminous" (paper SS:II.A) — it is the interface file Inchworm reads.
    Records are emitted in ascending code order, byte-identical to the
    historical ``sorted(dict)`` emission.
    """
    return write_counter_dump(counts, path)
