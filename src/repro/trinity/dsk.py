"""DSK-style disk-partitioned k-mer counting.

The paper (SS:II.A) notes Jellyfish's memory hunger and points to DSK
(Rizk, Lavenier & Chikhi 2013) — "k-mer counting with very low memory
usage" — as a candidate replacement that "is not part of the Trinity
pipeline yet".  This module implements that alternative so the memory/
time trade-off can be studied (see ``exp-dsk`` in the ablation benches).

DSK's idea: hash every k-mer to one of P disk partitions, then count one
partition at a time, so peak memory is ~1/P of the k-mer table.  Our
implementation is a faithful miniature: partitions are written as binary
uint64 files, counted one at a time with ``np.unique``, and streamed
into a :class:`~repro.seq.kmer_index.KmerCounterBuilder` — the merge
never materialises more than one partition's raw codes at once (the old
all-partitions ``Dict[int, int]`` merge defeated exactly the memory
bound DSK exists to provide).

The result is bit-identical to :func:`repro.trinity.jellyfish.jellyfish_count`
— a tested invariant.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import PipelineError
from repro.seq.kmer_index import KmerCounterBuilder
from repro.seq.kmers import base_blocks
from repro.seq.records import SeqRecord
from repro.trinity.jellyfish import _batch_codes

PathLike = Union[str, Path]

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class DskConfig:
    """Partitioned-counting parameters."""

    n_partitions: int = 8
    buffer_kmers: int = 65_536  # per-partition write buffer

    def __post_init__(self) -> None:
        if self.n_partitions <= 0:
            raise PipelineError(f"n_partitions must be positive, got {self.n_partitions}")
        if self.buffer_kmers <= 0:
            raise PipelineError(f"buffer_kmers must be positive, got {self.buffer_kmers}")


@dataclass
class DskStats:
    """Observability for the memory/IO trade-off study."""

    n_kmers_streamed: int = 0
    bytes_spilled: int = 0
    peak_partition_kmers: int = 0
    #: Largest single-partition working set during the merge: the raw
    #: spilled codes plus their ``np.unique`` (code, count) output.
    peak_partition_bytes: int = 0
    #: Builder backing arrays at their largest (all partials just before
    #: the final sort), measured with real ``nbytes``.
    peak_builder_bytes: int = 0

    def peak_memory_bytes(self) -> int:
        """Peak resident size of the counting pass, in real bytes.

        The dominant resident set is either one partition's working set
        (raw spilled codes + its ``np.unique`` output) or the builder's
        accumulated partials, whichever is larger — measured with real
        ``nbytes``, not the ``100 B x peak_partition_kmers`` CPython-dict
        extrapolation of the removed dict-merge era (which under-reported
        the true peak: the old merged dict held *all* partitions at
        once, not one).
        """
        return max(self.peak_partition_bytes, self.peak_builder_bytes)


def _partition_of(codes: np.ndarray, n_partitions: int) -> np.ndarray:
    """Stable partition assignment (multiplicative hash on the code)."""
    mixed = codes * np.uint64(0x9E3779B97F4A7C15)
    return (mixed >> np.uint64(40)) % np.uint64(n_partitions)


def dsk_count_with_stats(
    reads: Iterable[SeqRecord],
    k: int,
    config: Optional[DskConfig] = None,
    workdir: Optional[PathLike] = None,
    canonical: bool = True,
):
    """Count k-mers with DSK's partition-then-count strategy.

    ``workdir`` holds the partition spill files (a temp dir by default,
    removed afterwards).  Returns the same
    :class:`~repro.seq.kmer_index.KmerCounter` as Jellyfish would, plus
    a :class:`DskStats` (for the memory bench).
    """
    cfg = config or DskConfig()
    stats = DskStats()
    own_tmp = workdir is None
    tmp = Path(tempfile.mkdtemp(prefix="dsk-")) if own_tmp else Path(workdir)
    tmp.mkdir(parents=True, exist_ok=True)
    part_paths = [tmp / f"partition{p}.u64" for p in range(cfg.n_partitions)]
    try:
        _spill(reads, k, cfg, part_paths, stats, canonical)
        # Pass 2: partitions stream one at a time straight into the
        # builder as (code, count) arrays — at no point is more than one
        # partition's raw code stream resident, and the merged table is
        # never re-materialised as a Python dict.
        builder = KmerCounterBuilder(k, canonical)
        for path in part_paths:
            vals, cnts = _count_partition(path)
            if vals.size == 0:
                continue
            raw_bytes = int(cnts.sum()) * 8  # spilled codes read back
            stats.peak_partition_kmers = max(stats.peak_partition_kmers, int(vals.size))
            stats.peak_partition_bytes = max(
                stats.peak_partition_bytes, raw_bytes + vals.nbytes + cnts.nbytes
            )
            builder.add_pairs(vals, cnts)
            stats.peak_builder_bytes = max(
                stats.peak_builder_bytes, builder.memory_bytes()
            )
        return builder.build(), stats
    finally:
        for path in part_paths:
            path.unlink(missing_ok=True)
        if own_tmp:
            try:
                tmp.rmdir()
            except OSError:  # pragma: no cover - leftover files
                pass


def _spill(
    reads: Iterable[SeqRecord],
    k: int,
    cfg: DskConfig,
    part_paths: List[Path],
    stats: DskStats,
    canonical: bool,
) -> None:
    """Pass 1: stream the reads a pack block at a time, encoded as
    Jellyfish encodes them, and hash each k-mer to its partition file."""
    buffers: List[List[np.ndarray]] = [[] for _ in part_paths]
    buffered: List[int] = [0] * len(part_paths)
    handles = [open(p, "wb") for p in part_paths]
    try:
        for block in base_blocks(rec.seq for rec in reads):
            arr = _batch_codes(block, k, canonical)
            stats.n_kmers_streamed += int(arr.size)
            parts = _partition_of(arr, cfg.n_partitions)
            for p in np.flatnonzero(np.bincount(parts.astype(np.intp))).tolist():
                chunk = arr[parts == p]
                buffers[p].append(chunk)
                buffered[p] += chunk.size
                if buffered[p] >= cfg.buffer_kmers:
                    _flush(handles[p], buffers[p], stats)
                    buffers[p] = []
                    buffered[p] = 0
        for p, handle in enumerate(handles):
            if buffers[p]:
                _flush(handle, buffers[p], stats)
    finally:
        for handle in handles:
            handle.close()


def _flush(handle, chunks: List[np.ndarray], stats: DskStats) -> None:
    data = np.concatenate(chunks).astype(np.uint64)
    handle.write(data.tobytes())
    stats.bytes_spilled += data.nbytes


def _count_partition(path: Path) -> Tuple[np.ndarray, np.ndarray]:
    """Pass 2: count one partition's spilled codes.

    Returns the sorted-unique codes and their counts (``np.unique``
    output) — array partials for :meth:`KmerCounterBuilder.add_pairs`.
    """
    raw = path.read_bytes()
    if not raw:
        return _EMPTY_U64, _EMPTY_I64
    codes = np.frombuffer(raw, dtype=np.uint64)
    vals, cnts = np.unique(codes, return_counts=True)
    return vals, cnts.astype(np.int64)
