"""ReadsToTranscripts: assign each read to the best-matching component.

The paper (SS:II.A, SS:III.C): "assigns each read to the component with
which it shares the largest number of k-mers, as well as determining the
regions within each read that contribute k-mers to the component", using a
*streaming reads model* — reads are uploaded in chunks of
``max_mem_reads`` rather than loaded wholesale (the input file can exceed
memory).

Split into kernels so the hybrid MPI version can reuse them:

* :func:`build_kmer_map` — the OpenMP-only "assignment of k-mers to
  Inchworm bundles" setup step (the non-MPI share of Figure 9), producing
  a sorted-array :class:`~repro.seq.kmer_index.KmerMap`;
* :func:`assignment_table` — the whole-chunk batched kernel of the
  MPI-enabled main loop: one ``searchsorted`` against the map plus
  per-(read, component) segmented reductions, one integer row per read,
  byte-identical as :class:`ReadAssignment` records
  (:func:`assignment_records`) to the per-read oracle
  ``tests/reference_rtt.py``;
* :func:`format_assignment_table` — ``readsToComponents.out`` text
  straight from those rows (no record built);
* :func:`reads_to_transcripts` — the serial streaming driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PipelineError
from repro.seq.kmer_index import KmerMap, sorted_rows
from repro.seq.kmers import kmer_arrays_batch, revcomp_codes
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.components import Component, component_of_map

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ReadsToTranscriptsConfig:
    """Parameters of the read-assignment stage."""

    k: int = 24
    max_mem_reads: int = 1000  # reads uploaded into memory at a time
    min_shared_kmers: int = 1  # below this, the read is unassigned

    def __post_init__(self) -> None:
        if self.max_mem_reads <= 0:
            raise PipelineError(f"max_mem_reads must be positive, got {self.max_mem_reads}")


class ReadAssignment(NamedTuple):
    """One read's component assignment (a named tuple: one is built per
    read, three times cheaper than a frozen dataclass)."""

    read_index: int
    read_name: str
    component: int  # -1 = unassigned
    shared_kmers: int
    region_start: int  # first base of the read contributing a k-mer
    region_end: int  # one past the last contributing base


def build_kmer_map(
    contigs: Sequence[Contig],
    components: Sequence[Component],
    k: int,
) -> KmerMap:
    """Canonical k-mer code -> component id, as a sorted-array index.

    K-mers occurring in several components map to the smallest component
    id (deterministic; such k-mers are rare once welding has merged the
    overlapping contigs).  All contigs are encoded in one batched pass
    into a (code, component) pair stream; :meth:`KmerMap.from_pairs`
    then resolves duplicates with one sort + a per-segment minimum.
    """
    table = component_of_map(components, len(contigs))
    flat, contig_ids, _pos = kmer_arrays_batch([c.seq for c in contigs], k)
    if flat.size == 0:
        return KmerMap.empty(k)
    canon = np.minimum(flat, revcomp_codes(flat, k))
    comps = np.asarray(table, dtype=np.int64)[contig_ids]
    # Duplicate codes (within or across contigs) are fine: from_pairs
    # keeps the smallest component id per code, and duplicates within a
    # contig carry the same id — identical to deduping per contig first.
    return KmerMap.from_pairs(canon, comps, k)


def assignment_records(names: Sequence[str], table: np.ndarray) -> List[ReadAssignment]:
    """One :class:`ReadAssignment` per :func:`assignment_table` row, the
    read named by ``names``."""
    return [ReadAssignment(i, name, *rest) for name, (i, *rest) in zip(names, table.tolist())]


def assignment_table(
    indices: Sequence[int],
    seqs: Sequence[str],
    kmer_map: KmerMap,
    cfg: ReadsToTranscriptsConfig,
) -> np.ndarray:
    """Whole-chunk main-loop kernel: assign every read of one
    ``max_mem_reads`` upload in a handful of array passes.  One int64
    row per read: ``(index, component, shared_kmers, region_start,
    region_end)``, the :class:`ReadAssignment` fields but the name, with
    ``indices`` the reads' global indices.

    Layout: all reads are encoded in one pass (:func:`kmer_arrays_batch`
    joins them with ``N`` separators, so no per-read numpy round-trips),
    flattening every read's canonical codes into one array with read-id
    and position bookkeeping; a single ``searchsorted`` against the
    sorted :class:`KmerMap` resolves every position's component;
    shared-k-mer counts and contributing-region extents then come from
    per-(read, component) segmented reductions (one packed-key sort +
    boundary diffs), and the best component per read falls out of a
    segmented max that mirrors the per-read tie-break (largest shared
    count, then smallest component id).  Byte-identical to
    mapping the per-read oracle (``tests/reference_rtt.py``) over the
    chunk — a tested invariant.

    Positions are indices into each read's valid-window code array (the
    same enumeration the oracle uses), so non-ACGT handling and region
    extents match the reference path exactly.
    """
    n = len(seqs)
    if n == 0:
        return np.empty((0, 5), dtype=np.int64)

    best_comp = np.full(n, -1, dtype=np.int64)
    best_count = np.zeros(n, dtype=np.int64)
    best_first = np.zeros(n, dtype=np.int64)
    best_last = np.zeros(n, dtype=np.int64)

    flat, read_ids, pos = kmer_arrays_batch(seqs, cfg.k)
    if flat.size:
        flat = np.minimum(flat, revcomp_codes(flat, cfg.k))
        hit_at, found = kmer_map.find(flat)
        r = read_ids[found]
        c = kmer_map.values[hit_at[found]]
        p = pos[found]
        if r.size:
            # Segment the hits by (read, component) — one dense key — with
            # pos ascending within each.
            span = int(c.max()) + 1
            p, rc = sorted_rows((p, r * span + c))
            seg = np.flatnonzero(np.concatenate(([True], rc[1:] != rc[:-1])))
            ends = np.append(seg[1:], rc.size)
            seg_read, seg_comp = np.divmod(rc[seg], span)
            seg_count, seg_first, seg_last = ends - seg, p[seg], p[ends - 1]
            # Best segment per read: its largest shared count, ties to the
            # smallest component id (segments ascend by component in a read).
            read_start = np.flatnonzero(np.concatenate(([True], seg_read[1:] != seg_read[:-1])))
            most = np.maximum.reduceat(seg_count, read_start)
            top = np.flatnonzero(seg_count == np.repeat(most, np.diff(np.append(read_start, seg.size))))
            best = top[np.concatenate(([True], seg_read[top][1:] != seg_read[top][:-1]))]
            ok = seg_count[best] >= cfg.min_shared_kmers
            winners = seg_read[best][ok]
            best_comp[winners] = seg_comp[best][ok]
            best_count[winners] = seg_count[best][ok]
            best_first[winners] = seg_first[best][ok]
            best_last[winners] = seg_last[best][ok]

    assigned = best_comp >= 0
    return np.column_stack((
        np.asarray(indices, dtype=np.int64), best_comp, best_count,
        best_first, np.where(assigned, best_last + cfg.k, 0),
    ))


def stream_chunks(
    reads: Iterable[SeqRecord], chunk_size: int
) -> Iterator[List[Tuple[int, SeqRecord]]]:
    """Yield (global index, read) chunks of ``chunk_size`` — the streaming
    reads model (``max_mem_reads`` uploads)."""
    chunk: List[Tuple[int, SeqRecord]] = []
    for i, read in enumerate(reads):
        chunk.append((i, read))
        if len(chunk) == chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def reads_to_transcripts(
    reads: Iterable[SeqRecord],
    contigs: Sequence[Contig],
    components: Sequence[Component],
    cfg: Optional[ReadsToTranscriptsConfig] = None,
    out_path: Optional[PathLike] = None,
) -> List[ReadAssignment]:
    """Serial streaming driver.

    If ``out_path`` is given, assignments are also written as the
    tab-separated file downstream stages consume (one line per read).
    """
    cfg = cfg or ReadsToTranscriptsConfig()
    kmer_map = build_kmer_map(contigs, components, cfg.k)  # OpenMP-only setup
    tables = [np.empty((0, 5), dtype=np.int64)]
    names: List[str] = []
    for chunk in stream_chunks(reads, cfg.max_mem_reads):  # streaming model
        # the MPI-enabled loop in the hybrid version, one batch per upload
        tables.append(
            assignment_table([i for i, _r in chunk], [r.seq for _i, r in chunk], kmer_map, cfg)
        )
        names.extend(r.name for _i, r in chunk)
    table = np.concatenate(tables)
    if out_path is not None:
        Path(out_path).write_bytes(format_assignment_table(names, table))
    return assignment_records(names, table)


def format_assignment_table(names: Sequence[str], table: np.ndarray) -> bytes:
    """``readsToComponents.out`` text of :func:`assignment_table` rows (any
    integer dtype), the read of each named by ``names``: one line per row,
    the fields of :class:`ReadAssignment` in order, tab-separated."""
    return "".join(
        f"{i}\t{name}\t{component}\t{shared}\t{start}\t{end}\n"
        for name, (i, component, shared, start, end) in zip(names, table.tolist())
    ).encode("ascii")
