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

**What is shared.**  Only the index is per target piece; the read side
is per *read block* — the reads cut in ``p`` contiguous blocks
(:func:`~repro.parallel.chunks.static_block_ranges`), block ``r`` rank
``r``'s.  :class:`ReadSeeds` (both orientations' bytes and seed codes,
sorted by code) depends on no piece: each rank builds its block's table,
one ``allgatherv`` pools them and ``comm.shared("bowtie:read_seeds")``
stitches them once per ``mpirun`` (charged to every rank in
``bowtie:align``, outside its timed window), so the set-up costs a rank
``1/p`` of it plus the stitch.  The probe looks the *piece's* distinct
codes up in the sorted read seeds, so a rank's align time falls with its
piece (Figure 10).

**Wire format.**  A rank's piece-local bests are one record array: a
``(row, contig, pos, mm)`` record per read orientation that has a hit in
the piece, contig indices global, every field the narrowest unsigned
type that holds its bound (twice the read count, the contig count, the
longest contig, ``max_mismatches`` — the same on every rank; 6 bytes a
record for a few thousand reads on a few hundred contigs).  In
``bowtie:merge`` one ``alltoall`` takes each record to the owner of its
read's block, who takes each row's lexicographic minimum and keeps its
reads' alignments as :data:`~repro.trinity.bowtie.READ_HIT` columns; one
``allgather`` in block order — read order — puts them all on every rank.
SAM text is rendered only where it is written, straight from those
columns (:func:`~repro.trinity.bowtie.format_hits`; no record is built):
each rank writes its block's lines at its offset of ``bowtie.sam``,
rank 0's after the header, and ``bowtie.part<r>.sam`` stays piece-local
(every read against piece ``r``: the paper's per-node artefact).

**Scaffold support** is counted from the columns, in ``bowtie:merge``:
the same ``alltoall`` sends the index of each mate of a rank's block to
the owner of its base (:func:`~repro.seq.records.mate_owner`; every rank
holds the names), which joins the mapped ones and counts the pairs that
span two contigs; one ``allgather`` plus a keyed sum and the
``min_support`` filter gives GraphFromFasta its scaffold pairs.

The PyFasta split balances bases across pieces: the LPT deal of the
contigs by length (:func:`~repro.parallel.component_stage.lpt_assign`),
each piece kept in input order.  It is single-threaded and runs on the
master before the parallel phase; its serial cost is what flattens the
total-time curve in Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage
from repro.parallel.chunks import static_block_ranges
from repro.parallel.component_stage import lpt_assign, stage_file, write_merged, write_part
from repro.parallel.recovery import with_retry
from repro.seq.kmer_index import sorted_rows
from repro.seq.records import Contig, SeqRecord, mate_index, mate_owner
from repro.seq.sam import SamRecord, sam_header
from repro.trinity.bowtie import (
    BestHits,
    BowtieConfig,
    BowtieIndex,
    ReadSeeds,
    align_seeds,
    format_hits,
    hit_records,
    read_hits,
    scaffold_support,
    supported_pairs,
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

    hits: np.ndarray  # every read's READ_HIT row, read order (on all ranks)
    #: Contig pairs with enough spanning mate pairs, ascending (on all ranks).
    scaffolds: Tuple[Tuple[int, int], ...]
    reads: Sequence[SeqRecord]  # the aligned reads, for ``records``
    contig_names: Sequence[str]  # contig index -> name, for ``records``
    out_path: Optional[Path] = None  # merged SAM (on rank 0, if written)
    part_path: Optional[Path] = None  # this rank's SAM piece, if written

    @cached_property
    def records(self) -> List[SamRecord]:
        """The merged SAM's records, rendered on first read."""
        return hit_records(self.reads, self.hits, self.contig_names)


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
    pieces: Optional[List[List[int]]] = None
    with comm.region("bowtie:split", serial=True):
        if comm.rank == 0:
            with comm.compute("bowtie:pyfasta_split"):
                lengths = [len(c.seq) for c in contigs]
                pieces = with_retry(
                    comm,
                    "bowtie:pyfasta_split",
                    lambda: [
                        sorted(piece)
                        for piece in lpt_assign(lengths, range(len(contigs)), comm.size)
                    ],
                )
            # Model the file rewrite at 200 MB/s (PyFasta is I/O bound).
            comm.clock.advance(
                sum(len(c.seq) for c in contigs) / 200e6, label="bowtie:pyfasta_split"
            )
        pieces = comm.bcast(pieces, root=0)

    # -- per-rank: seeds of my read block, pooled; then the index over my
    # piece, probed with all reads' seeds --------------------------------------
    my_globals = np.asarray(pieces[comm.rank], dtype=np.int32)
    names = [c.name for c in contigs]
    n, p = len(reads), comm.size
    first = np.array([static_block_ranges(n, r, p)[0] for r in range(p)] + [n])
    lo, hi = first[comm.rank], first[comm.rank + 1]
    with comm.region("bowtie:align", piece_contigs=len(my_globals), reads=n):
        with comm.compute("bowtie:seeds", reads=int(hi - lo)):
            block = ReadSeeds.build(reads[lo:hi], cfg)
        blocks = comm.allgatherv(block)
        read_seeds = comm.shared("bowtie:read_seeds", lambda: ReadSeeds.stitch(blocks))
        with comm.compute("bowtie:align"):
            index = BowtieIndex([contigs[g] for g in my_globals.tolist()], cfg)
            local = align_seeds(read_seeds, index)
            piece = BestHits(local.rows, my_globals[local.contig], local.pos, local.mm)

    part_path = write_part(
        comm, "bowtie:write_part", workdir, f"bowtie.part{comm.rank}.sam",
        lambda: format_hits(reads, read_hits(piece, n), names),
    )

    # -- merge: a row's bests meet at the owner of its read's block, which
    # reduces them to its reads' alignments, and this block's mates meet at
    # the owners of their bases (as indices: every rank holds the names),
    # which join and count the mapped ones ---------------------------------
    with comm.region("bowtie:merge"):
        with comm.compute("bowtie:mates"):
            owner = mate_owner([r.name for r in reads[lo:hi]], p)
            narrow = np.min_scalar_type(n)
            mates_to = [(lo + np.flatnonzero(owner == r)).astype(narrow) for r in range(p)]
        wire = _to_wire(piece, inputs, cfg)
        dest = np.searchsorted(first, wire["rows"] % max(n, 1), side="right") - 1
        by_dest = np.split(
            wire[sorted_rows((np.arange(dest.size), dest))[0]], np.cumsum(np.bincount(dest, minlength=p))[:-1]
        )
        routed = comm.alltoall(list(zip(by_dest, mates_to)))
        with comm.compute("bowtie:merge"):
            table = np.concatenate([rows for rows, _mates in routed])
            # Library row -> row of this block (forward rows first).
            rows = table["rows"].astype(np.int64)
            rows -= lo + np.where(rows >= n, n - (hi - lo), 0)
            best = BestHits.best(rows, *(table[f] for f in _WIRE_FIELDS[1:]))
            mine = read_hits(best, int(hi - lo))
        blocks = comm.allgather(mine)
        hits = comm.shared("bowtie:merged", lambda: np.concatenate(blocks), cost=0.0)
        with comm.compute("bowtie:scaffolds"):
            held = np.concatenate([mates for _rows, mates in routed]).astype(np.int64)
            held = held[hits["contig"][held] >= 0]
            mates = held[mate_index([reads[i].name for i in held.tolist()])]
            # Read lengths: the stitched table's forward rows are the reads.
            counted = scaffold_support(
                hits, read_seeds.lengths[:n],
                np.fromiter((len(c.seq) for c in contigs), np.int64, len(contigs)), mates,
            )
        pieces = comm.allgather(counted)
        scaffolds = comm.shared(
            "bowtie:scaffolds",
            lambda: tuple(supported_pairs(*(np.concatenate(c) for c in zip(*pieces)))),
            cost=0.0,
        )
    # -- the merged SAM: each rank's block of lines, the header on rank 0 ------
    final_sam = write_merged(
        comm, "bowtie:write_sam", workdir, "bowtie.sam",
        lambda: format_hits(
            reads[lo:hi], mine, names,
            sam_header([(c.name, len(c.seq)) for c in contigs]) if comm.rank == 0 else (),
        ),
    )
    return StageResult(
        stage="bowtie",
        outputs=BowtieOutputs(
            hits=hits, scaffolds=scaffolds, reads=reads, contig_names=names,
            out_path=final_sam, part_path=part_path,
        ),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "n_records": float(len(hits)),
            # This piece's share of the work (sums over ranks to the single-
            # index counts; lookups: plus shared codes), this block's reads.
            "n_seed_lookups": float(local.n_seed_lookups),
            "n_seed_hits": float(local.n_seed_hits),
            "n_verified": float(local.n_verified),
            "n_block_reads": float(hi - lo),
            "n_rows_routed": float(wire.size),
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


def serial_bowtie(
    inputs: BowtieInputs,
    config: Optional[BowtieStageConfig] = None,
    spans: Optional[List[Span]] = None,
) -> BowtieOutputs:
    """The serial body, one index over all contigs: :func:`mpi_bowtie`'s
    oracle, its alignment timed as ``chrysalis.bowtie``."""
    config = config or BowtieStageConfig()
    reads, contigs = inputs.reads, inputs.contigs
    with host_stage(spans, "chrysalis.bowtie"):
        index = BowtieIndex(contigs, config.bowtie)
        seeds = ReadSeeds.build(reads, index.cfg)
        hits = read_hits(align_seeds(seeds, index), len(reads))
    names = [c.name for c in contigs]
    out_path = stage_file(config.workdir, "bowtie.sam")
    if out_path is not None:
        out_path.write_bytes(format_hits(reads, hits, names, index.header()))
    # Mates joined over the mapped reads, as the MPI stage's owners do.
    mapped = np.flatnonzero(hits["contig"] >= 0)
    mates = mapped[mate_index([reads[i].name for i in mapped.tolist()])]
    scaffolds = tuple(supported_pairs(
        *scaffold_support(hits, seeds.lengths[: len(reads)], index.lengths, mates)
    ))
    return BowtieOutputs(
        hits=hits, scaffolds=scaffolds, reads=reads, contig_names=names, out_path=out_path
    )
