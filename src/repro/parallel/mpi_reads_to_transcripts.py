"""Hybrid MPI+OpenMP ReadsToTranscripts (paper SS:III.C).

The streaming reads model is kept: reads are consumed in chunks of
``max_mem_reads``.  The distribution strategy is the paper's second
("updated") one: **every rank reads every chunk** and simply discards
chunks whose ordinal is not congruent to its rank — redundant I/O in
exchange for zero distribution communication.  (The first strategy the
paper tried and rejected, master/slave chunk distribution, is evaluated
where its cost lives — the ``abl-rtt-io`` model in
:mod:`repro.experiments.ablations`.)

Each rank writes its own assignment file.  The paper's master then
concatenates them with a plain ``cat`` (the measured-constant <15 s step
of Figure 9); here each rank writes the same bytes at its offset of the
merged file (:func:`~repro.parallel.component_stage.write_merged`).

The main loop runs the **batched sorted-array kernel**
(:func:`~repro.trinity.chrysalis.reads_to_transcripts.assignment_table`):
each ``max_mem_reads`` chunk is assigned in a handful of numpy passes
against the shared :class:`~repro.seq.kmer_index.KmerMap`, one integer
row per read.  The rows cross the wire as the narrowest integer type that
holds them, and the one shared merge builds the full
:class:`~repro.trinity.chrysalis.reads_to_transcripts.ReadAssignment`
list the back end consumes.  A rank's text is rendered once, straight
from its rows
(:func:`~repro.trinity.chrysalis.reads_to_transcripts.format_assignment_table`),
and only if it is written: its part file and its piece of the merged
file are those same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage
from repro.parallel.component_stage import stage_file, write_merged, write_part
from repro.parallel.recovery import with_retry
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.components import Component
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadAssignment,
    ReadsToTranscriptsConfig,
    assignment_records,
    assignment_table,
    build_kmer_map,
    format_assignment_table,
    reads_to_transcripts,
    stream_chunks,
)

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RttInputs:
    """Workload data for ReadsToTranscripts (identical on every rank)."""

    reads: Sequence[SeqRecord]
    contigs: Sequence[Contig]
    components: Sequence[Component]


@dataclass(frozen=True)
class RttStageConfig:
    """Distribution knobs on top of the serial
    :class:`ReadsToTranscriptsConfig`."""

    rtt: ReadsToTranscriptsConfig = ReadsToTranscriptsConfig()
    nthreads: int = 16
    workdir: Optional[PathLike] = None


@dataclass
class RttOutputs:
    """What the hybrid ReadsToTranscripts computes."""

    assignments: List[ReadAssignment]  # full, read-index-ordered (on all ranks)
    out_path: Optional[Path] = None  # merged output (on rank 0, if written)


def mpi_reads_to_transcripts(
    comm: SimComm,
    inputs: RttInputs,
    config: Optional[RttStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`.

    Returns identical, serially-equal assignments on every rank (pooled
    with one allgather).
    """
    config = config or RttStageConfig()
    reads, contigs, components = inputs.reads, inputs.contigs, inputs.components
    cfg = config.rtt
    workdir = config.workdir

    # -- OpenMP-only setup: assign k-mers to Inchworm bundles --------------
    # (redundant on every real rank, so every rank is charged the build
    # cost — but computed once per simulated run)
    with comm.region("rtt:setup", serial=True):
        kmer_map = comm.shared(
            "rtt:kmer_map", lambda: build_kmer_map(contigs, components, cfg.k)
        )

    # -- MPI loop: redundant-read streaming --------------------------------
    # The chunk boundaries and per-chunk read costs depend only on the
    # input, so they are computed once per simulated run (cost=0.0: the
    # virtual charge is the per-chunk read advance below, unchanged).
    plan = comm.shared(
        "rtt:chunk_plan", lambda: _chunk_plan(reads, cfg.max_mem_reads), cost=0.0
    )
    tables: List[np.ndarray] = [np.empty((0, 5), dtype=np.int64)]
    with comm.region("rtt:loop"):
        for chunk_idx, (start, stop, read_cost) in enumerate(plan):
            # Every rank "reads" the chunk (redundant I/O, no communication)…
            with_retry(
                comm,
                f"rtt:read_chunk{chunk_idx}",
                lambda: comm.clock.advance(
                    read_cost, label=f"rtt:read_chunk{chunk_idx}"
                ),
            )
            # …but only processes chunks congruent to its rank.
            if chunk_idx % comm.size != comm.rank:
                continue
            # One vectorised call per chunk on the OpenMP team; its thread
            # CPU time is apportioned across the reads by k-mer-position
            # count (each read's share of the flattened code array).
            seqs = [reads[i].seq for i in range(start, stop)]
            weights = [max(len(seq) - cfg.k + 1, 1) for seq in seqs]
            with comm.compute(
                f"rtt:assign_chunk{chunk_idx}", threads=config.nthreads
            ) as kernel:
                tables.append(assignment_table(range(start, stop), seqs, kmer_map, cfg))
                kernel.weights = weights
    table = np.concatenate(tables)
    # The narrowest integer type that holds both ends of the rows' range
    # (signed, where it must be, down to -(max + 1)).
    lo, hi = int(table.min(initial=0)), int(table.max(initial=0))
    table = table.astype(np.result_type(*map(np.min_scalar_type, (lo, -hi - 1 if lo < 0 else hi))))
    # Rendered at most once, for the files (the rows are in read order).
    text = cache(lambda: format_assignment_table(
        [reads[i].name for i in table[:, 0].tolist()], table
    ))

    # -- per-rank output file, and the merged one striped over the ranks: the
    # same bytes in rank order, what a ``cat`` of the parts gives ----------------
    write_part(
        comm, "rtt:write_part", workdir, f"readsToComponents.part{comm.rank}.out", text
    )
    out_path = write_merged(comm, "rtt:concat", workdir, "readsToComponents.out", text)

    # Pool the rows so every rank returns the full, read-ordered records
    # (downstream QuantifyGraph needs them) — one shared object.
    pooled = comm.allgather(table)
    assignments = comm.shared("rtt:assignments", lambda: _records(reads, pooled), cost=0.0)
    return StageResult(
        stage="rtt",
        outputs=RttOutputs(assignments=assignments, out_path=out_path),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "n_assignments": float(len(assignments)),
        },
        rank=comm.rank,
    )


def _records(reads: Sequence[SeqRecord], tables: List[np.ndarray]) -> List[ReadAssignment]:
    """Assignment rows as records, in read order."""
    table = np.concatenate(tables)
    table = table[np.argsort(table[:, 0])]
    return assignment_records([reads[i].name for i in table[:, 0].tolist()], table)


def _chunk_read_cost(chunk: Sequence[Tuple[int, SeqRecord]]) -> float:
    """Virtual cost of reading one chunk from disk (redundant on all ranks).

    Modelled at 500 MB/s sequential FASTA parsing.
    """
    nbytes = sum(len(r.seq) + len(r.name) + 2 for _i, r in chunk)
    return nbytes / 500e6


def _chunk_plan(
    reads: Sequence[SeqRecord], chunk_size: int
) -> List[Tuple[int, int, float]]:
    """``(start, stop, read_cost)`` per ``max_mem_reads`` chunk.

    Input-only, so it is built once per simulated run via
    ``comm.shared`` and each rank materialises ``(index, read)`` tuples
    only for the chunks congruent to its rank.  The costs equal
    :func:`_chunk_read_cost` over :func:`stream_chunks` chunk for chunk.
    """
    plan: List[Tuple[int, int, float]] = []
    start = 0
    for chunk in stream_chunks(reads, chunk_size):
        plan.append((start, start + len(chunk), _chunk_read_cost(chunk)))
        start += len(chunk)
    return plan


def serial_reads_to_transcripts(
    inputs: RttInputs,
    config: Optional[RttStageConfig] = None,
    spans: Optional[List[Span]] = None,
) -> RttOutputs:
    """The serial body: :func:`mpi_reads_to_transcripts`' oracle, timed
    (file included) as ``chrysalis.reads_to_transcripts``."""
    config = config or RttStageConfig()
    out_path = stage_file(config.workdir, "readsToComponents.out")
    with host_stage(spans, "chrysalis.reads_to_transcripts"):
        assignments = reads_to_transcripts(
            inputs.reads, inputs.contigs, inputs.components, config.rtt, out_path=out_path
        )
    return RttOutputs(assignments=assignments, out_path=out_path)
