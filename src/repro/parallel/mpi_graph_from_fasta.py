"""Hybrid MPI+OpenMP GraphFromFasta (paper SS:III.B).

Each of the two compute loops is distributed with the chunked round-robin
strategy, its chunks sized by :func:`~repro.parallel.chunks.chunk_size`
to fill each rank's OpenMP team; after each loop the per-rank results
are pooled on *every* rank with ``allgatherv`` — strings (packed welding
subsequences) after loop 1, a flat int array (pair indices) after loop
2, exactly the wire formats the paper describes.  The paper's non-MPI regions run redundantly on
every *real* rank, which is why their share of total time grows with node
count (Figure 8); here that is true of the shared-seed array over the
contigs, the weld index and component construction only.  In the
simulation those read-only structures are built once per run through
:meth:`repro.mpi.comm.SimComm.shared` — every rank is still *charged* the
single-rank build cost on its virtual clock, but the host no longer pays
O(nprocs x setup) wall-clock.  The read weldmer scan, the dominant share
of that setup and the paper's named future work (SS:VI), is
owner-computes: each rank scans one contiguous block of the reads once,
as Bowtie deals them (a weldmer is a pair of packed k-mer codes, the
scan array passes), and the partial tables are pooled with a third ``allgatherv`` as the kernel's
``(hi, lo, counts)`` arrays — 24 B per distinct weldmer — summed by key
and decoded to the strings loop 2 probes once per run.

The per-contig kernels are imported from the serial implementation, so
the weld/pair/component *sets* computed here are identical to
:func:`repro.trinity.chrysalis.graph_from_fasta.graph_from_fasta` — a
tested invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mpi.comm import SimComm
from repro.mpi.datatypes import pack_strings, unpack_strings
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage
from repro.parallel.chunks import chunk_ranges, chunk_size, chunks_for_rank, static_block_ranges
from repro.parallel.recovery import with_retry
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.components import build_components
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    GraphFromFastaResult,
    WeldCandidate,
    build_weld_index,
    find_weld_pairs_for_contig,
    graph_from_fasta,
    harvest_welds_for_contig,
    pair_array,
    scan_weldmers,
    shared_seed_array,
    sum_weldmer_tables,
    unique_pairs,
    weld_index_keys,
    weldmer_index,
)


@dataclass(frozen=True)
class GffInputs:
    """Workload data for the hybrid GraphFromFasta (identical on every rank).

    ``extra_pairs`` carries the Bowtie scaffold pairs the driver folds
    into component construction — input data, not a knob.
    """

    contigs: Sequence[Contig]
    reads: Sequence[SeqRecord]
    extra_pairs: Sequence[Tuple[int, int]] = ()


@dataclass(frozen=True)
class GffStageConfig:
    """Distribution knobs on top of the serial :class:`GraphFromFastaConfig`."""

    gff: GraphFromFastaConfig = GraphFromFastaConfig()
    nthreads: int = 16


def mpi_graph_from_fasta(
    comm: SimComm,
    inputs: GffInputs,
    config: Optional[GffStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`."""
    config = config or GffStageConfig()
    contigs, reads, extra_pairs = inputs.contigs, inputs.reads, inputs.extra_pairs
    cfg = config.gff
    nthreads = config.nthreads
    ranges = chunk_ranges(len(contigs), chunk_size(len(contigs), comm.size, nthreads))
    my_chunks = chunks_for_rank(len(ranges), comm.rank, comm.size)

    # Simulated input-FASTA read: the retryable I/O point for flaky-I/O
    # fault plans.  A no-op in fault-free runs (zero cost, no spans).
    with_retry(comm, "gff:read_fasta", lambda: None)

    # -- serial region: the shared-seed array (redundant on every real rank —
    # Fig 8's non-parallel share — so every rank is charged the build cost,
    # but computed once per run) ---------------------------------------------
    with comm.region("gff:setup", serial=True):
        shared_seeds = comm.shared("gff:setup", lambda: shared_seed_array(contigs, cfg))

    # -- read weldmer scan, owner-computes: each rank scans its block of the
    # reads and the partial tables are pooled like the welds below (summed
    # by key, so any deal gives the same table).  Still setup (same label),
    # no longer serial.
    with comm.region("gff:setup"):
        mine = reads[slice(*static_block_ranges(len(reads), comm.rank, comm.size))]
        with comm.compute("gff:weldmer_scan", reads=len(mine)) as scan:
            my_weldmers = scan_weldmers(mine, shared_seeds, cfg)
            n_hits = scan.attrs["hits"] = int(my_weldmers[2].sum())
        pooled_weldmers = comm.allgatherv(my_weldmers)
        # Summed and decoded once, charged per rank: the pooled tables are
        # identical on every rank.
        weldmers = comm.shared(
            "gff:weldmers",
            lambda: weldmer_index(sum_weldmer_tables(pooled_weldmers), cfg.k),
        )

    # -- loop 1: harvest welds over my chunks ------------------------------
    my_welds: List[WeldCandidate] = []
    with comm.region("gff:loop1", chunks=len(my_chunks)):
        for c in my_chunks:
            start, stop = ranges[c]
            for welds in comm.map(
                f"gff:loop1:chunk{c}",
                lambda idx: harvest_welds_for_contig(idx, contigs[idx], cfg, shared_seeds),
                range(start, stop),
                nthreads,
            ):
                my_welds.extend(welds)

    # -- pool welds on every rank (packed strings + Allgatherv) ------------
    # Wire format mirrors the paper: the vector of welding subsequences is
    # packed into a single byte sequence (flanks/seed delimited so the
    # receiving side can rebuild the candidates), sizes exchanged first.
    payload, lengths = pack_strings(
        [f"{w.left_flank},{w.seed},{w.right_flank}" for w in my_welds]
    )
    owners = np.array([w.owner for w in my_welds], dtype=np.int64)
    seeds = np.array([w.seed_code for w in my_welds], dtype=np.uint64)
    pooled = comm.allgatherv((payload, lengths, owners, seeds))
    # Unpacked once per run and uncharged, like the other pooled merges.
    welds = comm.shared(
        "gff:welds",
        lambda: [
            WeldCandidate(*packed.split(","), owner=int(o), seed_code=int(s))
            for pay, lens, own, sds in pooled
            for packed, o, s in zip(unpack_strings(pay, lens), own.tolist(), sds.tolist())
        ],
        cost=0.0,
    )

    # -- serial region: weld index rebuild (charged per rank, built once;
    # valid because the pooled weld list is identical on every rank) -------
    def _weld_index():
        index = build_weld_index(welds)
        return index, weld_index_keys(index)

    with comm.region("gff:weld_index", serial=True):
        weld_index, weld_keys = comm.shared("gff:weld_index", _weld_index)

    # -- loop 2: find pairs over my chunks ----------------------------------
    my_pairs: List[Tuple[int, int]] = []
    with comm.region("gff:loop2", chunks=len(my_chunks)):
        for c in my_chunks:
            start, stop = ranges[c]
            for pairs in comm.map(
                f"gff:loop2:chunk{c}",
                lambda idx: find_weld_pairs_for_contig(
                    idx, contigs[idx], welds, weld_index, weldmers, cfg, weld_keys
                ),
                range(start, stop),
                nthreads,
            ):
                my_pairs += pairs

    # -- pool pairs on every rank (one (m, 2) int array each + Allgatherv) --
    pooled_pairs = comm.allgatherv(np.unique(pair_array(my_pairs), axis=0))
    pairs = comm.shared("gff:pairs", lambda: unique_pairs(pooled_pairs, extra_pairs), cost=0.0)

    # -- serial region: components (charged per rank, built once; the
    # pooled pair list is identical on every rank) --------------------------
    with comm.region("gff:components", serial=True):
        components = comm.shared(
            "gff:components", lambda: build_components(len(contigs), pairs)
        )

    return StageResult(
        stage="gff",
        outputs=GraphFromFastaResult(welds=welds, pairs=pairs, components=components),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "n_shared_seeds": float(shared_seeds.size),
            "n_weldmer_hits": float(n_hits),
            "n_weldmers": float(len(weldmers)),
            "n_welds": float(len(welds)),
            "n_pairs": float(len(pairs)),
            "n_components": float(len(components)),
        },
        rank=comm.rank,
    )


def serial_graph_from_fasta(
    inputs: GffInputs,
    config: Optional[GffStageConfig] = None,
    spans: Optional[List[Span]] = None,
) -> GraphFromFastaResult:
    """The serial body: :func:`mpi_graph_from_fasta`'s oracle (welds up to
    pooling order), timed as ``chrysalis.graph_from_fasta``."""
    config = config or GffStageConfig()
    with host_stage(spans, "chrysalis.graph_from_fasta"):
        return graph_from_fasta(
            inputs.contigs, inputs.reads, config.gff, extra_pairs=inputs.extra_pairs
        )
