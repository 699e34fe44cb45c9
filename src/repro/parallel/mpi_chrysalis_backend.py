"""Fused component-parallel Chrysalis back end on MPI.

After GraphFromFasta and ReadsToTranscripts, the driver used to run two
*serial* regions — FastaToDebruijn (orient + graph build) and
QuantifyGraph (read threading) — and then pay a full allgather + re-deal
round trip to hand the quantified graphs to the distributed Butterfly.
Every one of those steps factors per component: a component's graph is
built from its own contigs, threaded with its own RTT-routed reads, and
walked by Butterfly independently of every other component.

This stage fuses the whole back-end chain — **orient → fasta_to_debruijn
→ quantify_graph → butterfly walk** — into one component-parallel MPI
stage on the :mod:`repro.parallel.component_stage` skeleton.  What is
dealt is a **(component, read block)** unit (:func:`read_block_units`),
a component with no more than a pack block of routed reads being one:
cost-blind round-robin over the unit list (unit ``i`` to rank
``i mod p``), or LPT (``dynamic``) over ``READ_COST x block reads``
with the component's walk term (:func:`estimated_component_cost`)
riding on its block 0 — whose rank is the component's **owner**.  A rank packs the reads of its units
once (:func:`~repro.trinity.chrysalis.quantify.pack_routed_reads`; a
unit's windows are one slice; DESIGN §5.20) and its OpenMP team counts
them, one unit per task, against the component's contig-built graph
(:func:`~repro.trinity.chrysalis.quantify.count_block`: a read is voted
against the graph *before* any read is threaded, so a block depends on
no other).  Tables of units dealt away from their owner reach it in one
``alltoall``; the owner lands a component's tables with one ``add_kmers``
(:func:`~repro.trinity.chrysalis.quantify.pool_blocks`: integer counts,
so neither cut nor arrival order can change a byte) and walks, one
component per task — the walk is what stays indivisible.  With
``use_pair_reconciliation`` (paper SS:II.A) the owner then joins the
mates among its components' reads and scores their candidates against
them, one (component, :data:`PAIR_BLOCK` pairs) item per task; supports
add over blocks.
Graphs and quantified weights never cross the wire: only block tables,
transcripts and light per-component quant stats do.  What every real
rank would rebuild (component and unit tables, repeated read names,
LPT costs) is the stage's serial time: a first, ``serial=True`` entry of
``chrysalis:deal``.

Outputs are **byte-identical to the serial pipeline** at every rank
count: the fused chain per component is the serial code path over more
blocks (reads routed in serial assignment order, Butterfly enumeration
salted by ``(seed, cid)`` only), and the merge concatenates per-component
results in ascending component-id order (reconciled: by name within
one, as :func:`~repro.trinity.pairs.reconcile_with_pairs` leaves them),
written as ``Trinity.fasta``.  Rank-independence again makes
crash recovery free: a relaunch on ``p - 1`` survivors re-deals
deterministically and reproduces the same merged outputs.

Full :class:`~repro.trinity.chrysalis.quantify.ComponentQuant` objects
(which embed the graphs) stay in each rank's *local* outputs
(``local_quants``); the driver unions them host-side — the simulated
ranks share one address space, so that union models the real design
where per-component quants would be written per rank and concatenated,
not allgathered.

The walk-only case (the retired standalone distributed Butterfly) is an
*input* of this stage, not a second stage: :func:`contig_only_inputs`
feeds one contig per singleton component and no reads, so orient is the
identity, quantify threads nothing, and build + walk reproduce
:func:`~repro.trinity.butterfly.butterfly_assemble` on the same graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage
from repro.parallel import component_stage
from repro.parallel.recovery import with_retry
from repro.seq import kmers
from repro.seq.fasta import format_fasta, write_fasta
from repro.seq.records import Contig, SeqRecord, Transcript
from repro.trinity.butterfly import ButterflyConfig, butterfly_assemble, butterfly_component
from repro.trinity.chrysalis.components import Component
from repro.trinity.chrysalis.debruijn import fasta_to_debruijn
from repro.trinity.chrysalis.orient import orient_component
from repro.trinity.chrysalis.quantify import (
    ComponentQuant,
    count_block,
    pack_routed_reads,
    pool_blocks,
    quantify_graph,
    reads_by_component,
)
from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment
from repro.trinity.pairs import (
    component_mates,
    mate_support,
    reconcile_with_pairs,
    repeated_names,
    supported,
)

PathLike = Union[str, Path]


#: Threading one routed read costs what walking this many node x path
#: units costs (the fit in :func:`estimated_component_cost`).
READ_COST = 80.0

#: Mate pairs scored per reconciliation task: whitefly-half's largest
#: component (422 pairs) is seven tasks, most components one.
PAIR_BLOCK = 64


def estimated_component_cost(
    component: Component,
    contigs: Sequence[Contig],
    k: int,
    max_paths: int,
    n_reads: int = 0,
) -> float:
    """Predicted fused-chain cost of one component, *before* its graph exists.

    Two terms, in node x path units.  **Walk**: Butterfly's DFS visits at
    most ``max_paths`` paths, each linear in the node count, and the deal
    happens before FastaToDebruijn, so nodes are estimated from the
    member contigs — a contig of length ``L`` yields at most
    ``L - k + 2`` (k-1)-mer nodes; orient and build scale with the same
    count and ride in this term.  **Threading**: the owner's read pack
    and QuantifyGraph's vote and count are linear in the read windows of
    the component's ``n_reads`` routed reads (known at deal time from the
    RTT routing table), weighted by :data:`READ_COST`.

    The ratio is a least-squares fit to the per-component ``thread_time``
    of the fused chain (plus each component's share, by routed reads, of
    its owner's read pack) over the 65 + 91 components of the two
    benchmark libraries, best of 7 pinned passes: ``t = 1.24e-7 *
    est_nodes * max_paths + 9.85e-6 * n_reads`` seconds, R^2 0.98, rms
    residual 0.19 ms against a median component of 0.27 ms and a largest
    of 12.9 ms (the fit is the giants', which is what LPT needs); per
    library the ratio is 57 and 66, pooled 80, and any value in 36-100
    deals the same makespans to within 1 %.  (PR 18's dict kernels: 3.5e-7
    / 2.3e-5 s, ratio 66 — both terms fell 2.3-2.8x; DESIGN §5.20.)  Both
    libraries hold 75-bp reads, so the count ranks components as the
    window total would.

    Only the *relative* order matters (LPT), and the deal never affects
    outputs — merge order is component id — so a misestimate costs
    balance, not correctness.
    """
    est_nodes = sum(
        max(len(contigs[m].seq) - k + 2, 1) for m in component.members
    )
    return float(est_nodes * max(max_paths, 1)) + READ_COST * n_reads


def read_block_units(
    reads: Sequence[SeqRecord],
    routed: Mapping[int, Sequence[int]],
    cids: Sequence[int],
) -> List[Tuple[int, int, Sequence[int]]]:
    """The units of deal, ``(component, block, read indices)`` in ``cids``
    order: a component's routed reads in runs of one pack block's worth
    (where ``base_blocks`` cuts reads as long as the component's first: one
    read looked at, not all, in this replicated region).  Block 0 (empty
    without reads) names the owner."""
    units: List[Tuple[int, int, Sequence[int]]] = []
    for cid in cids:
        indices = routed.get(cid, ())
        size = -(-kmers.PACK_BLOCK_BASES // max(len(reads[indices[0]].seq), 1)) if indices else 1
        units += [
            (cid, block, indices[block * size : (block + 1) * size])
            for block in range(max(-(-len(indices) // size), 1))
        ]
    return units


@dataclass(frozen=True)
class ChrysalisBackendInputs:
    """Workload data for the fused back end (identical on every rank).

    Everything the serial middle consumed: Inchworm contigs, the reads,
    GraphFromFasta's components, RTT's read assignments, and
    Jellyfish's solid table, which gates read threading (None disables
    the solidity filter, like the serial path).
    """

    contigs: Sequence[Contig]
    reads: Sequence[SeqRecord]
    components: Sequence[Component]
    assignments: Sequence[ReadAssignment]
    counts: object = None  # Optional[JellyfishCounts]


def contig_only_inputs(seqs: Sequence[str]) -> ChrysalisBackendInputs:
    """Walk-only workload: contig ``i`` alone in component ``i``, no reads."""
    return ChrysalisBackendInputs(
        contigs=[Contig(name=f"contig_{i}", seq=seq) for i, seq in enumerate(seqs)],
        reads=(),
        components=[Component(id=i, members=(i,)) for i in range(len(seqs))],
        assignments=(),
    )


@dataclass(frozen=True)
class ChrysalisBackendStageConfig:
    """Distribution + kernel knobs for the fused Chrysalis back end."""

    k: int = 25  # de Bruijn k (graph nodes are (k-1)-mers)
    butterfly: ButterflyConfig = field(default_factory=ButterflyConfig)
    nthreads: int = 16
    strategy: str = "round_robin"  # or "dynamic" (LPT)
    workdir: Optional[PathLike] = None  # per-rank FASTA parts + Trinity.fasta
    #: Filter each component's candidates on mate-pair support
    #: (``TrinityConfig.use_pair_reconciliation``).
    use_pair_reconciliation: bool = False

    def __post_init__(self) -> None:
        component_stage.check_strategy(self.strategy, "chrysalis-backend")

    @property
    def weld_k(self) -> int:
        """Orientation k-mer size: ``k - 1``, as ``TrinityConfig.weld_k``."""
        return self.k - 1


@dataclass
class ChrysalisBackendOutputs:
    """What the fused back end computes."""

    transcripts: List[Transcript]  # full, component-id-ordered (all ranks)
    #: Merged light per-component stats {cid: (n_reads, read_edge_weight)}
    #: — what actually crossed the (simulated) wire; full on all ranks.
    quant_stats: Dict[int, Tuple[int, float]]
    #: This rank's full ComponentQuants (graphs embedded) — rank-local by
    #: design; the driver unions them host-side into the serial-shaped
    #: quants dict.
    local_quants: Dict[int, ComponentQuant]
    out_path: Optional[Path] = None  # Trinity.fasta (master, if written)
    part_path: Optional[Path] = None  # this rank's FASTA piece, if written


def mpi_chrysalis_backend(
    comm: SimComm,
    inputs: ChrysalisBackendInputs,
    config: Optional[ChrysalisBackendStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`.

    Per unit, where it was dealt: orient the member contigs, build the
    de Bruijn graph, count the block's RTT-routed reads against it
    (solid-masked); per component, on its owner: land every block's
    table, walk the quantified graph with Butterfly.  Every rank returns
    the full merged transcript list and quant stats in ascending
    component-id order — byte-identical to the serial
    ``fasta_to_debruijn`` + ``quantify_graph`` + ``butterfly_assemble``
    chain (a tested invariant at nprocs 1/3/8, including under crash
    recovery).
    """
    config = config or ChrysalisBackendStageConfig()
    bf_cfg = config.butterfly
    contigs = inputs.contigs

    # Simulated input-bundle read (contigs + assignments land on every
    # node): the retryable I/O point for flaky-I/O fault plans.
    with_retry(comm, "chrysalis:read_inputs", lambda: None)

    # -- replicated setup: every real rank would build these, so each is
    # built once per simulated mpirun and charged to every rank — the
    # stage's serial share, marked as such (a first, ``serial=True`` entry
    # of the deal's label: what precedes the deal *is* deal set-up) --------
    with comm.region("chrysalis:deal", serial=True):
        # The serial assembly order — and the deterministic merge order.
        comp_by_id: Dict[int, Component] = comm.shared(
            "chrysalis:components", lambda: {c.id: c for c in inputs.components}
        )
        cids: List[int] = comm.shared(
            "chrysalis:order", lambda: sorted(comp_by_id), cost=0.0
        )
        # RTT routing table (component id -> read indices in assignment
        # order), cut into the units of deal; the names no mate join may pair.
        def route() -> tuple:
            routed = reads_by_component(inputs.assignments)
            return routed, read_block_units(inputs.reads, routed, cids)

        routed, units = comm.shared("chrysalis:route", route)
        if config.use_pair_reconciliation:
            repeated = comm.shared("chrysalis:mates", lambda: repeated_names(inputs.reads))
        # Graphs don't exist yet, so the LPT cost model works from contig
        # lengths and routed read counts; the walk rides on block 0.
        costs = (
            comm.shared(
                "chrysalis:costs",
                lambda: [
                    estimated_component_cost(
                        comp_by_id[cid], contigs, config.k,
                        bf_cfg.max_paths_per_component, len(indices),
                    )
                    if block == 0
                    else READ_COST * len(indices)
                    for cid, block, indices in units
                ],
            )
            if config.strategy == "dynamic"
            else None
        )

    # -- deal units across ranks ---------------------------------------------
    mine = component_stage.deal(
        comm, "chrysalis", range(len(units)), costs, strategy=config.strategy
    )
    owned = [units[u][0] for u in mine if units[u][1] == 0]

    # -- per-unit count, then per-component pool + walk, on the OpenMP team ---
    def count_unit(u: int) -> tuple:
        members = [contigs[m].seq for m in comp_by_id[units[u][0]].members]
        graph = fasta_to_debruijn(orient_component(members, config.weld_k), config.k)
        return graph, count_block(u, graph, pack)

    def backend_component(cid: int) -> Tuple[ComponentQuant, List[Transcript]]:
        quant = pool_blocks(cid, graphs[cid], tables[cid])
        return quant, butterfly_component(cid, quant.graph, bf_cfg)

    def score(item: Tuple[int, int]) -> np.ndarray:
        cid, at = item
        seqs, windows = candidates[cid]
        return mate_support(seqs, inputs.reads, mates[cid][at : at + PAIR_BLOCK], windows)

    graphs: Dict[int, object] = {}
    tables: Dict[int, list] = {}
    outbox: List[list] = [[] for _ in range(comm.size)]
    with comm.region(
        "chrysalis:loop", strategy=config.strategy, components=len(owned), units=len(mine)
    ):
        owned_by = enumerate(comm.allgather(owned))
        owner = {cid: rank for rank, cids_of in owned_by for cid in cids_of}
        # The reads of this rank's units, encoded and packed once, each
        # unit's windows one slice.  One array pass over blocks of reads —
        # the team divides it as it does RTT's chunk kernel.
        with comm.compute(
            "chrysalis:pack", threads=config.nthreads, units=len(mine)
        ) as packing:
            pack = pack_routed_reads(
                inputs.reads, {u: units[u][2] for u in mine}, config.k,
                inputs.counts.index if inputs.counts is not None else None,
            )
            packing.weights = pack.block_bases
            n_read_windows, pack_bytes = int(pack.nodes.size), pack.nbytes
            packing.attrs.update(reads=int(pack.has_kmer.size), windows=n_read_windows)
        counted = comm.map("chrysalis:units", count_unit, mine, config.nthreads)
        del pack  # a rank's largest transient: gone before the merge
        # A unit's table goes to its component's owner (this rank's own stay
        # off the wire); block 0's graph is the one the owner keeps.
        for u, (graph, table) in zip(mine, counted):
            cid, block, _indices = units[u]
            if block == 0:
                graphs[cid] = graph
            outbox[owner[cid]].append((cid, table))
        here, outbox[comm.rank] = outbox[comm.rank], []
        inbox = comm.alltoall(outbox)
        for cid, table in chain(here, *inbox):
            tables.setdefault(cid, []).append(table)
        result = comm.map("chrysalis:components", backend_component, owned, config.nthreads)
        local = [(cid, q, ts) for cid, (q, ts) in zip(owned, result)]
        if config.use_pair_reconciliation:
            # The owner joins the mates among its components' reads, one
            # array pass its team divides by read; a component's blocks
            # share its candidates' sorted windows.
            with comm.compute("chrysalis:mates", threads=config.nthreads) as joining:
                mates = component_mates(inputs.reads, routed, owned, repeated)
                joining.weights = np.ones(sum(len(routed.get(cid, ())) for cid in owned))
            candidates = {
                cid: ([t.seq for t in ts], {}) for cid, _q, ts in local if ts and cid in mates
            }
            items = [
                (cid, at) for cid in candidates for at in range(0, len(mates[cid]), PAIR_BLOCK)
            ]
            scored = comm.map("chrysalis:pairs", score, items, config.nthreads)
            support: Dict[int, np.ndarray] = {}
            for (cid, _at), n in zip(items, scored):
                support[cid] = support.get(cid, 0) + n
            local = [
                (cid, q, sorted(supported(ts, support.get(cid)), key=lambda t: t.name))
                for cid, q, ts in local
            ]

    part_path = component_stage.write_part(
        comm, "chrysalis:write_part", config.workdir,
        f"chrysalis_backend.part{comm.rank}.fasta",
        lambda: format_fasta(
            [t.to_record() for _cid, _q, ts in local for t in ts]
        ).encode("ascii"),
    )

    # -- merge: pool transcripts + light quant stats, ascending component
    # id.  Graphs and full quants stay rank-local — that is the point of
    # the fusion: nothing heavier than (cid, n_reads, weight, transcripts)
    # crosses the wire. ------------------------------------------------------
    transcripts, quant_stats = component_stage.merge(
        comm, "chrysalis",
        [(cid, q.n_reads, q.read_edge_weight, ts) for cid, q, ts in local],
        lambda flat: (
            [t for _cid, _n, _w, ts in flat for t in ts],
            {cid: (n, w) for cid, n, w, _ts in flat},
        ),
    )

    out_path = component_stage.write_merged(
        comm, "chrysalis:write_merged", config.workdir, "Trinity.fasta",
        component_stage.fasta_block(comm, transcripts),
    )

    return StageResult(
        stage="chrysalis-backend",
        outputs=ChrysalisBackendOutputs(
            transcripts=transcripts,
            quant_stats=quant_stats,
            local_quants={cid: q for cid, q, _ts in local},
            out_path=out_path,
            part_path=part_path,
        ),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "n_components": float(len(cids)),
            "n_local_components": float(len(owned)),
            "n_transcripts": float(len(transcripts)),
            "n_reads_threaded": float(sum(n for n, _w in quant_stats.values())),
            # Exact, rank-local counts of what this rank built and packed.
            "n_graph_edges": float(sum(q.graph.n_edges for _cid, q, _ts in local)),
            "n_read_windows": float(n_read_windows),
            "pack_bytes": float(pack_bytes),
            # ... and of what the unit deal moved (tables, bytes: over the wire).
            "n_units": float(len(mine)),
            "n_split_components": float(sum(len(tables[cid]) > 1 for cid in owned)),
            "n_tables_sent": float(sum(map(len, outbox))),
            "n_tables_received": float(sum(map(len, inbox))),
            "pool_bytes": float(sum(
                c.nbytes + w.nbytes for _cid, (c, w, _n) in chain.from_iterable(outbox)
            )),
        },
        rank=comm.rank,
    )


def serial_chrysalis_backend(
    inputs: ChrysalisBackendInputs,
    config: Optional[ChrysalisBackendStageConfig] = None,
    spans: Optional[List[Span]] = None,
) -> ChrysalisBackendOutputs:
    """The serial body: :func:`mpi_chrysalis_backend`'s oracle (its
    ``local_quants`` unioned over the ranks), timed as three stages."""
    config = config or ChrysalisBackendStageConfig()
    contigs, reads = inputs.contigs, list(inputs.reads)
    with host_stage(spans, "chrysalis.fasta_to_debruijn"):
        graphs = {
            comp.id: fasta_to_debruijn(
                orient_component([contigs[m].seq for m in comp.members], config.weld_k),
                config.k,
            )
            for comp in inputs.components
        }
    with host_stage(spans, "chrysalis.quantify_graph"):
        quants = quantify_graph(
            graphs, reads, inputs.assignments,
            kmer_counts=inputs.counts,
        )
    with host_stage(spans, "butterfly"):
        transcripts = butterfly_assemble(graphs, config.butterfly)
        if config.use_pair_reconciliation:
            transcripts, _stats = reconcile_with_pairs(transcripts, reads, inputs.assignments)
    out_path = component_stage.stage_file(config.workdir, "Trinity.fasta")
    if out_path is not None:
        write_fasta(out_path, [t.to_record() for t in transcripts])
    return ChrysalisBackendOutputs(
        transcripts=transcripts,
        quant_stats={cid: (q.n_reads, q.read_edge_weight) for cid, q in quants.items()},
        local_quants=quants,
        out_path=out_path,
    )
