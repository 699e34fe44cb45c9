"""Jellyfish: fast k-mer counting with dump-to-file formats.

Counts k-mers over both strands (each k-mer and its reverse complement are
counted as the same canonical key, Jellyfish's ``-C`` mode, which is how
the Trinity workflow invokes it for non-strand-specific data) and writes
the Trinity-consumed dump: a FASTA-like text file where each record's
header is the count and the body is the k-mer (``jellyfish dump`` default
format).

The in-memory representation is a :class:`repro.seq.kmer_index.KmerCounter`
— the shared sorted-array k-mer index — so downstream consumers (Inchworm,
QuantifyGraph, coverage) probe it with batched ``searchsorted`` lookups.
Batch consumers read the index arrays, scalar consumers use ``get`` /
``get_kmer``.  ``batch_bases`` bounds what one sort + count reduces;
inside a batch the window pack runs a cache-sized block
(:data:`repro.seq.kmers.PACK_BLOCK_BASES`) at a time, which halves its
cost per base at every input size measured (DESIGN.md SS:5.19).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import PipelineError, SequenceError
from repro.seq.kmer_index import (
    KmerCounter,
    KmerCounterBuilder,
    read_counter_dump,
    write_counter_dump,
)
from repro.seq.kmers import (
    base_blocks,
    canonical_code,
    canonical_kmers,
    encode_kmer,
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


class JellyfishCounts:
    """K-mer counts plus the k they were counted at.

    Array-backed: ``index`` is the sorted-array :class:`KmerCounter`;
    batch access goes through its ``codes``/``values`` arrays and
    ``find``/``lookup``, scalar access through ``get`` / ``get_kmer``.
    """

    __slots__ = ("k", "canonical", "index")

    def __init__(
        self,
        k: int,
        canonical: bool = True,
        index: Optional[KmerCounter] = None,
    ) -> None:
        self.k = k
        self.canonical = canonical
        self.index = index if index is not None else KmerCounter.empty(k)

    def __len__(self) -> int:
        return len(self.index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JellyfishCounts):
            return NotImplemented
        return (
            self.k == other.k
            and self.canonical == other.canonical
            and np.array_equal(self.index.codes, other.index.codes)
            and np.array_equal(self.index.values, other.index.values)
        )

    def get(self, code: int, default: int = 0) -> int:
        return self.index.get(code, default)

    def get_kmer(self, kmer: str) -> int:
        """Count of a k-mer given as a string (canonicalised if needed)."""
        if len(kmer) != self.k:
            raise SequenceError(f"expected a {self.k}-mer, got {len(kmer)} bases")
        code = encode_kmer(kmer)
        if self.canonical:
            code = canonical_code(code, self.k)
        return self.index.get(code, 0)

    @property
    def total(self) -> int:
        return self.index.total

    def filtered(self, min_count: int) -> "JellyfishCounts":
        """Drop k-mers below ``min_count`` (error-kmer removal)."""
        if min_count <= 1:
            return self
        return JellyfishCounts(self.k, canonical=self.canonical, index=self.index.filtered(min_count))

    def memory_bytes(self) -> int:
        """Resident size of the backing store (a stage span's RAM estimate).

        The sorted-array index holds exactly two parallel arrays, so this
        is the true footprint (16 B/key).
        """
        return self.index.memory_bytes()


def jellyfish_count(
    reads: Iterable[SeqRecord], k: int, canonical: bool = True, batch_bases: int = 4_000_000
) -> JellyfishCounts:
    """``jellyfish count``: count k-mers across all reads.

    Batched vectorisation: reads are joined with ``N`` separators (which
    no valid k-mer window can span) so each batch needs a single packing
    pass; per-batch partial (code, count) pairs are merged by the
    :class:`KmerCounterBuilder`'s final sort + segmented sum.
    """
    builder = KmerCounterBuilder(k)
    for batch in base_blocks((rec.seq for rec in reads), batch_bases):
        builder.add_codes(_batch_codes(batch, k, canonical))
    return JellyfishCounts(k=k, canonical=canonical, index=builder.build())


def _batch_codes(seqs: Sequence[str], k: int, canonical: bool) -> np.ndarray:
    """K-mer codes of ``seqs`` in read order, packed a cache-sized block at
    a time: the blocks' arrays concatenated are the one-call array."""
    encode = canonical_kmers if canonical else kmer_array
    parts = [encode("N".join(block), k) for block in base_blocks(seqs)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)


def jellyfish_dump(counts: JellyfishCounts, path: PathLike) -> int:
    """``jellyfish dump``: write counts as FASTA (header=count, body=kmer).

    Returns the number of records written.  The dump can be "extremely
    voluminous" (paper SS:II.A) — it is the interface file Inchworm reads.
    Records are emitted in ascending code order, byte-identical to the
    historical ``sorted(dict)`` emission.
    """
    return write_counter_dump(counts.index, path)


def jellyfish_load(path: PathLike, canonical: bool = True) -> JellyfishCounts:
    """Read a dump file back into :class:`JellyfishCounts`."""
    counter = read_counter_dump(path)
    return JellyfishCounts(k=counter.k, canonical=canonical, index=counter)


def kmer_histogram(counts: JellyfishCounts, max_bin: int = 50) -> np.ndarray:
    """Abundance histogram (``jellyfish histo``): index i = #kmers seen i times."""
    return counts.index.histogram(max_bin)
