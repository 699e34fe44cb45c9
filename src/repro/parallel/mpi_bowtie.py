"""MPI Bowtie via PyFasta target splitting (paper SS:III.A).

"We ran Bowtie on multiple nodes by splitting the target sequences of
Bowtie, i.e. the Fasta file of Inchworm contigs.  The Fasta file was
partitioned using the PyFasta python module ... Each node then produces
an alignment output file in SAM format, and the files from all nodes are
merged into a single file at the end of the job."

No aligner source changes are needed (that was the point of the paper's
approach): each rank builds a :class:`BowtieIndex` over its piece and
probes all reads' seeds against it with the serial aligner's own
:func:`align_seeds`.  The per-read, per-orientation bests are then
reduced across pieces with the serial aligner's exact tie-break
(:meth:`BestHits.best`), so the merged SAM is record-for-record
identical to a single-index run — a tested invariant.

**What is shared.**  The read side of the alignment (:class:`ReadSeeds`:
both orientations' bytes and seed codes) depends on no target piece, so
every real rank would build the identical table from the read file.  It
is built once per ``mpirun`` through ``comm.shared("bowtie:read_seeds")``
and charged to every rank's clock at its single-rank cost, inside
``bowtie:align`` but outside the rank's own timed window — the
accounting ``gff:setup`` uses.  Only the piece index and the probe are
per-rank work, which is what makes a rank's align time fall with its
piece (Figure 10).

**Wire format.**  Each rank sends the master one record array in the
one ``gather`` of ``bowtie:merge``: a ``(row, contig, pos, mm)`` record
per read orientation that has a hit in the piece, contig indices global,
every field the narrowest unsigned type that holds its bound (twice the
read count, the contig count, the longest contig, ``max_mismatches`` —
the same on every rank; 6 bytes a record for a few thousand reads on a
few hundred contigs).  The master concatenates the arrays, takes each
row's lexicographic minimum and builds every :class:`SamRecord` once.

The PyFasta split is single-threaded and runs on the master before the
parallel phase; its serial cost is what flattens the total-time curve in
Figure 10.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.parallel.recovery import with_retry
from repro.parallel.stage import parallel_stage
from repro.seq.pyfasta import plan_split
from repro.seq.records import Contig, SeqRecord
from repro.seq.sam import SamRecord, sam_header, write_sam
from repro.trinity.bowtie import (
    BestHits,
    BowtieConfig,
    BowtieIndex,
    ReadSeeds,
    align_seeds,
    sam_records,
)

PathLike = Union[str, Path]


@dataclass(frozen=True)
class BowtieInputs:
    """Workload data for the parallel Bowtie (identical on every rank)."""

    reads: Sequence[SeqRecord]
    contigs: Sequence[Contig]


@dataclass(frozen=True)
class BowtieStageConfig:
    """Distribution knobs on top of the serial :class:`BowtieConfig`."""

    bowtie: BowtieConfig = BowtieConfig()
    workdir: Optional[PathLike] = None  # per-rank SAM pieces + merged SAM


@dataclass
class BowtieOutputs:
    """What the parallel Bowtie computes."""

    records: List[SamRecord]  # full merged SAM (on all ranks)
    out_path: Optional[Path] = None  # merged SAM (master, if written)
    part_path: Optional[Path] = None  # this rank's SAM piece, if written


@parallel_stage(
    "bowtie", inputs=BowtieInputs, config=BowtieStageConfig, outputs=BowtieOutputs
)
def mpi_bowtie(
    comm: SimComm,
    inputs: BowtieInputs,
    config: Optional[BowtieStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`."""
    config = config or BowtieStageConfig()
    reads, contigs = inputs.reads, inputs.contigs
    cfg = config.bowtie
    workdir = config.workdir

    # -- PyFasta split on the master (serial overhead) ----------------------
    split_time = 0.0
    pieces: Optional[List[List[int]]] = None
    with comm.region("bowtie:split", serial=True):
        if comm.rank == 0:
            t0 = time.perf_counter()
            pieces = with_retry(
                comm,
                "bowtie:pyfasta_split",
                lambda: plan_split([len(c.seq) for c in contigs], comm.size),
            )
            split_time = time.perf_counter() - t0
            # Model the file rewrite at 200 MB/s (PyFasta is I/O bound).
            split_time += sum(len(c.seq) for c in contigs) / 200e6
            comm.clock.advance(split_time, label="bowtie:pyfasta_split")
        pieces = comm.bcast(pieces, root=0)

    # -- per-rank: build index over my piece, probe all reads' seeds ---------
    my_globals = np.asarray(pieces[comm.rank], dtype=np.int32)
    names = [c.name for c in contigs]
    with comm.region("bowtie:align", piece_contigs=len(my_globals), reads=len(reads)):
        read_seeds = comm.shared(
            "bowtie:read_seeds", lambda: ReadSeeds.build(reads, cfg)
        )
        with comm.compute("bowtie:align") as align:
            index = BowtieIndex([contigs[g] for g in my_globals.tolist()], cfg)
            local = align_seeds(read_seeds, index)
            hits = BestHits(local.rows, my_globals[local.contig], local.pos, local.mm)

    part_path: Optional[Path] = None
    if workdir is not None:
        wd = Path(workdir)
        wd.mkdir(parents=True, exist_ok=True)
        part_path = wd / f"bowtie.part{comm.rank}.sam"
        part_records = sam_records(reads, hits, names)
        with_retry(
            comm, "bowtie:write_part", lambda: write_sam(part_path, part_records)
        )

    # -- merge: reduce per-orientation bests across pieces ------------------
    merge_time = 0.0
    merged: Optional[List[SamRecord]] = None
    final_sam: Optional[Path] = None
    with comm.region("bowtie:merge", serial=True):
        pooled = comm.gather(_to_wire(hits, inputs, cfg), root=0)
        if comm.rank == 0:
            t0 = time.perf_counter()
            table = np.concatenate(pooled)
            merged = sam_records(
                reads, BestHits.best(*(table[f] for f in _WIRE_FIELDS)), names
            )
            merge_time = time.perf_counter() - t0
            comm.clock.advance(merge_time, label="bowtie:merge")
            if workdir is not None:
                final_sam = Path(workdir) / "bowtie.sam"
                header = sam_header([(c.name, len(c.seq)) for c in contigs])
                with_retry(
                    comm,
                    "bowtie:write_sam",
                    lambda: write_sam(final_sam, merged, header),
                )
        merged = comm.bcast(merged, root=0)
    return StageResult(
        stage="bowtie",
        outputs=BowtieOutputs(
            records=merged, out_path=final_sam, part_path=part_path
        ),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "split_time": split_time,
            "align_time": align.seconds,
            "merge_time": merge_time,
            "n_records": float(len(merged)),
            # This piece's share of the work (sums over ranks to the
            # single-index counts) and of the index memory.
            "n_seed_hits": float(local.n_seed_hits),
            "n_verified": float(local.n_verified),
            "index_bytes": float(index.memory_bytes()),
        },
        rank=comm.rank,
    )


_WIRE_FIELDS = ("rows", "contig", "pos", "mm")


def _to_wire(hits: BestHits, inputs: BowtieInputs, cfg: BowtieConfig) -> np.ndarray:
    """``hits`` as one record array, each field as narrow as its bound."""
    bounds = (
        2 * len(inputs.reads),
        len(inputs.contigs),
        max((len(c.seq) for c in inputs.contigs), default=0),
        cfg.max_mismatches,
    )
    table = np.empty(
        hits.rows.size,
        dtype=[(f, np.min_scalar_type(b)) for f, b in zip(_WIRE_FIELDS, bounds)],
    )
    for f in _WIRE_FIELDS:
        table[f] = getattr(hits, f)
    return table
