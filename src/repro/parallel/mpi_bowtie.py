"""MPI Bowtie via PyFasta target splitting (paper SS:III.A).

"We ran Bowtie on multiple nodes by splitting the target sequences of
Bowtie, i.e. the Fasta file of Inchworm contigs.  The Fasta file was
partitioned using the PyFasta python module ... Each node then produces
an alignment output file in SAM format, and the files from all nodes are
merged into a single file at the end of the job."

No aligner source changes are needed (that was the point of the paper's
approach): each rank builds a :class:`BowtieIndex` over its piece and
aligns *all* reads against it.  The per-read, per-orientation bests are
then reduced across pieces with the serial aligner's exact tie-break, so
the merged SAM is record-for-record identical to a single-index run — a
tested invariant.

The PyFasta split is single-threaded and runs on the master before the
parallel phase; its serial cost is what flattens the total-time curve in
Figure 10.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.parallel.recovery import with_retry
from repro.parallel.stage import parallel_stage
from repro.seq.pyfasta import plan_split
from repro.seq.records import Contig, SeqRecord
from repro.seq.sam import SamRecord, write_sam
from repro.trinity.bowtie import (
    BowtieConfig,
    BowtieIndex,
    align_read_detail,
    resolve_orientation,
)

PathLike = Union[str, Path]

_Best = Optional[Tuple[int, int, int]]  # (contig idx, pos, mismatches)


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

    # -- per-rank: build index over my piece, align all reads ---------------
    # Thread CPU time: all ranks align concurrently, so wall time here
    # would grow with nprocs through GIL contention.
    my_globals: List[int] = pieces[comm.rank]
    with comm.region("bowtie:align", piece_contigs=len(my_globals), reads=len(reads)):
        t0 = time.thread_time()
        index = BowtieIndex([contigs[g] for g in my_globals], cfg)
        bests: List[Tuple[_Best, _Best]] = []
        for read in reads:
            fwd, rev = align_read_detail(read, index)
            bests.append((_to_global(fwd, my_globals), _to_global(rev, my_globals)))
        align_time = time.thread_time() - t0
        comm.clock.advance(align_time, label="bowtie:align")

    part_path: Optional[Path] = None
    if workdir is not None:
        wd = Path(workdir)
        wd.mkdir(parents=True, exist_ok=True)
        part_path = wd / f"bowtie.part{comm.rank}.sam"
        part_records = [
            resolve_orientation(read, fwd, rev, lambda g: contigs[g].name)
            for read, (fwd, rev) in zip(reads, bests)
        ]
        with_retry(
            comm, "bowtie:write_part", lambda: write_sam(part_path, part_records)
        )

    # -- merge: reduce per-orientation bests across pieces ------------------
    merge_time = 0.0
    merged: Optional[List[SamRecord]] = None
    final_sam: Optional[Path] = None
    with comm.region("bowtie:merge", serial=True):
        pooled = comm.gather(bests, root=0)
        if comm.rank == 0:
            t0 = time.perf_counter()
            merged = []
            for ridx, read in enumerate(reads):
                fwd = _min_best(p[ridx][0] for p in pooled)
                rev = _min_best(p[ridx][1] for p in pooled)
                merged.append(
                    resolve_orientation(read, fwd, rev, lambda g: contigs[g].name)
                )
            merge_time = time.perf_counter() - t0
            comm.clock.advance(merge_time, label="bowtie:merge")
            if workdir is not None:
                from repro.seq.sam import sam_header

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
            "split_time": split_time,
            "align_time": align_time,
            "merge_time": merge_time,
            "n_records": float(len(merged)),
        },
        rank=comm.rank,
    )


def _to_global(best: _Best, my_globals: Sequence[int]) -> _Best:
    """Rewrite a piece-local best to global contig indices."""
    if best is None:
        return None
    cidx, pos, mm = best
    return (my_globals[cidx], pos, mm)


def _min_best(cands) -> _Best:
    """Serial tie-break across pieces: min (mismatches, contig, pos)."""
    best: _Best = None
    for cand in cands:
        if cand is None:
            continue
        if best is None or (cand[2], cand[0], cand[1]) < (best[2], best[0], best[1]):
            best = cand
    return best
