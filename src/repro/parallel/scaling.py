"""Calibrated paper-scale replays of the scaling experiments (Figs 7-11).

These functions re-run the paper's *decomposition* — chunked round-robin
dealing, per-chunk OpenMP dynamic scheduling, Allgatherv pooling, serial
regions — over the sampled sugarbeet-scale workload, with absolute time
anchored by :class:`repro.cluster.costmodel.PaperCalibration`.  The
speedups, shares and imbalances are *outputs* of the schedule simulation,
not inputs (see DESIGN.md SS:5).

The same chunking code (:mod:`repro.parallel.chunks`) and schedule
simulators (:mod:`repro.openmp.schedule`) drive both these replays and
the real miniature runs, so the model cannot drift from the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.costmodel import CALIBRATION, PaperCalibration
from repro.cluster.workload import ChrysalisWorkload, build_workload
from repro.errors import ScheduleError
from repro.obs.span import Span, append_stage
from repro.mpi.network import IDATAPLEX_FDR10, NetworkModel
from repro.openmp.schedule import dynamic_makespan
from repro.parallel.chunks import (
    chunk_ranges,
    chunks_for_rank,
    default_chunk_size,
    static_block_ranges,
)
from repro.parallel.component_stage import (
    greedy_assign,
    lpt_assign,
    round_robin_assign,
)


# ---------------------------------------------------------------------------
# GraphFromFasta (Figs 7, 8)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GffScalingPoint:
    """One node count's simulated GraphFromFasta timings (Fig 7 series)."""

    nodes: int
    loop1_max: float
    loop1_min: float
    loop2_max: float
    loop2_min: float
    comm_s: float
    serial_s: float

    @property
    def loops_s(self) -> float:
        return self.loop1_max + self.loop2_max

    @property
    def total_s(self) -> float:
        return self.loops_s + self.comm_s + self.serial_s

    @property
    def loops_share(self) -> float:
        """Fraction of total time in the two MPI loops (Fig 8)."""
        return self.loops_s / self.total_s

    @property
    def loop1_imbalance(self) -> float:
        return self.loop1_max / self.loop1_min if self.loop1_min > 0 else float("inf")

    @property
    def loop2_imbalance(self) -> float:
        return self.loop2_max / self.loop2_min if self.loop2_min > 0 else float("inf")


def _rank_loop_times(
    costs: np.ndarray,
    nodes: int,
    nthreads: int,
    chunk_size: int,
    rank_overhead: float,
    strategy: str = "round_robin",
) -> np.ndarray:
    """Per-rank loop time under one distribution strategy.

    ``round_robin`` — the paper's shipped chunked round-robin;
    ``static_block`` — the paper's rejected pre-allocation;
    ``dynamic`` — master-dealt chunks to the next free rank, the
    "dynamic partitioning strategy to reduce this load imbalance" the
    paper names as future work (SS:V.A).
    """
    ranges = chunk_ranges(costs.size, chunk_size)
    times = np.zeros(nodes)
    if strategy == "dynamic":
        chunk_times = [
            dynamic_makespan(costs[start:stop], nthreads) for start, stop in ranges
        ]
        dealt = greedy_assign(chunk_times, range(len(chunk_times)), nodes)
        for r, chunks in enumerate(dealt):
            times[r] = sum(chunk_times[c] for c in chunks)
        return times + rank_overhead
    for rank in range(nodes):
        if strategy == "round_robin":
            my_chunks = chunks_for_rank(len(ranges), rank, nodes)
            t = 0.0
            for c in my_chunks:
                start, stop = ranges[c]
                t += dynamic_makespan(costs[start:stop], nthreads)
        elif strategy == "static_block":
            start, stop = static_block_ranges(costs.size, rank, nodes)
            t = dynamic_makespan(costs[start:stop], nthreads)
        else:
            raise ScheduleError(f"unknown strategy {strategy!r}")
        times[rank] = t + rank_overhead
    return times


def simulate_gff_point(
    nodes: int,
    workload: ChrysalisWorkload,
    calibration: PaperCalibration = CALIBRATION,
    nthreads: int = 16,
    network: NetworkModel = IDATAPLEX_FDR10,
    strategy: str = "round_robin",
    parallel_serial_region: bool = False,
) -> GffScalingPoint:
    """Simulate hybrid GraphFromFasta at one node count.

    ``parallel_serial_region=True`` models the paper's named future work
    of "parallelizing other parts of GraphFromFasta": the k-mer/weldmer
    setup is sharded across ranks and merged with an Allgatherv, so its
    cost scales ~1/nodes plus communication.
    """
    if nodes <= 0:
        raise ScheduleError(f"nodes must be positive, got {nodes}")
    chunk_size = calibration.chunk_size(workload.n_contigs)
    t1 = _rank_loop_times(
        workload.loop1_costs, nodes, nthreads, chunk_size,
        calibration.gff_loop1_rank_overhead_s, strategy,
    )
    t2 = _rank_loop_times(
        workload.loop2_costs, nodes, nthreads, chunk_size,
        calibration.gff_loop2_rank_overhead_s, strategy,
    )
    comm = network.allgatherv(nodes, workload.weld_payload_bytes) + network.allgatherv(
        nodes, workload.pair_payload_bytes
    )
    serial = calibration.gff_serial_region_s
    if parallel_serial_region and nodes > 1:
        # Sharded setup: each rank indexes 1/nodes of the reads/contigs,
        # then pools the tables (weldmer table ~= weld payload x 4).
        serial = serial / nodes
        comm += network.allgatherv(nodes, 4 * workload.weld_payload_bytes)
    return GffScalingPoint(
        nodes=nodes,
        loop1_max=float(t1.max()),
        loop1_min=float(t1.min()),
        loop2_max=float(t2.max()),
        loop2_min=float(t2.min()),
        comm_s=comm,
        serial_s=serial,
    )


def simulate_gff_scaling(
    nodes_list: Sequence[int],
    workload: Optional[ChrysalisWorkload] = None,
    calibration: PaperCalibration = CALIBRATION,
    nthreads: int = 16,
    network: NetworkModel = IDATAPLEX_FDR10,
    strategy: str = "round_robin",
) -> List[GffScalingPoint]:
    """The Figure 7 sweep (paper: 16-192 nodes, 16 threads each)."""
    workload = workload if workload is not None else build_workload()
    return [
        simulate_gff_point(n, workload, calibration, nthreads, network, strategy)
        for n in nodes_list
    ]


def gff_serial_baseline_s(calibration: PaperCalibration = CALIBRATION) -> float:
    """The OpenMP-only single-node GraphFromFasta time (paper: 122 610 s)."""
    loops = (
        calibration.gff_loop1_thread_work_s + calibration.gff_loop2_thread_work_s
    ) / 16.0
    return loops + calibration.gff_serial_region_s


# ---------------------------------------------------------------------------
# ReadsToTranscripts (Fig 9)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RttScalingPoint:
    """One node count's simulated ReadsToTranscripts timings (Fig 9)."""

    nodes: int
    loop_max: float
    loop_min: float
    setup_s: float  # OpenMP-only k-mer -> bundle assignment
    concat_s: float

    @property
    def total_s(self) -> float:
        return self.loop_max + self.setup_s + self.concat_s

    @property
    def loop_share(self) -> float:
        return self.loop_max / self.total_s


def simulate_rtt_point(
    nodes: int,
    workload: ChrysalisWorkload,
    calibration: PaperCalibration = CALIBRATION,
    striped_io: bool = False,
    io_cost_s: Optional[float] = None,
) -> RttScalingPoint:
    """Simulate hybrid ReadsToTranscripts at one node count.

    Chunk ``i`` of ``max_mem_reads`` reads is processed by rank
    ``i mod nodes``.  By default every rank pays the full redundant read
    (``io_cost_s``, defaulting to the calibrated page-cached constant);
    with ``striped_io=True`` — the paper's "exploring MPI-I/O for RNA-Seq
    data" future work — each rank reads only its own stripe, paying
    ``io_cost_s / nodes`` plus a small collective-open overhead.
    """
    if nodes <= 0:
        raise ScheduleError(f"nodes must be positive, got {nodes}")
    io = calibration.rtt_redundant_read_s if io_cost_s is None else io_cost_s
    if striped_io:
        io = io / nodes + 0.5  # MPI_File_open + view setup
    costs = workload.rtt_chunk_costs
    times = np.zeros(nodes)
    for rank in range(nodes):
        mine = chunks_for_rank(costs.size, rank, nodes)
        times[rank] = costs[mine].sum() + io
    return RttScalingPoint(
        nodes=nodes,
        loop_max=float(times.max()),
        loop_min=float(times.min()),
        setup_s=calibration.rtt_assign_s,
        concat_s=calibration.rtt_concat_s,
    )


def simulate_rtt_scaling(
    nodes_list: Sequence[int],
    workload: Optional[ChrysalisWorkload] = None,
    calibration: PaperCalibration = CALIBRATION,
) -> List[RttScalingPoint]:
    """The Figure 9 sweep (paper: 4-32 nodes)."""
    workload = workload if workload is not None else build_workload()
    return [simulate_rtt_point(n, workload, calibration) for n in nodes_list]


def rtt_serial_baseline_s(calibration: PaperCalibration = CALIBRATION) -> float:
    """Single-node ReadsToTranscripts (paper: 20 190 s).

    Includes the serial streaming path's residual overhead (see the
    FLAGGED note in :mod:`repro.cluster.costmodel`).
    """
    return (
        calibration.rtt_loop_work_s
        + calibration.rtt_assign_s
        + calibration.rtt_serial_residual_s
    )


# ---------------------------------------------------------------------------
# Component stages: deal -> team -> gather (Inchworm, the fused Chrysalis
# back end and its walk-only Butterfly case)
# ---------------------------------------------------------------------------


def _deal_indices(
    nodes: int,
    costs: np.ndarray,
    nthreads: int,
    strategy: str,
    chunk_size: Optional[int],
) -> List[List[int]]:
    """Per-rank component-index lists under either deal strategy — the
    stages' own :mod:`repro.parallel.component_stage` assignments, so the
    models deal exactly as the simulated-MPI stages do."""
    ids = range(costs.size)
    if strategy == "dynamic":
        return lpt_assign(costs.tolist(), ids, nodes)
    if strategy == "round_robin":
        if chunk_size is None:
            chunk_size = default_chunk_size(costs.size, nodes, nthreads)
        return [
            round_robin_assign(ids, rank, nodes, chunk_size) for rank in range(nodes)
        ]
    raise ScheduleError(f"unknown strategy {strategy!r}")


@dataclass(frozen=True)
class ComponentStagePoint:
    """One (node count, strategy)'s simulated component-stage timings."""

    nodes: int
    strategy: str
    setup_s: float  # replicated set-up, charged to every rank (Amdahl floor)
    loop_max: float  # slowest rank's team over its components
    loop_min: float  # fastest rank's (imbalance witness)
    gather_s: float  # the merge's pooling collective

    @property
    def total_s(self) -> float:
        return self.setup_s + self.loop_max + self.gather_s

    @property
    def imbalance(self) -> float:
        return self.loop_max / self.loop_min if self.loop_min > 0 else float("inf")


def simulate_component_stage(
    nodes: int,
    component_costs: Sequence[float],
    nthreads: int = 16,
    strategy: str = "round_robin",
    chunk_size: Optional[int] = None,
    network: NetworkModel = IDATAPLEX_FDR10,
    setup_s: float = 0.0,
    gather_bytes: Optional[float] = None,
) -> ComponentStagePoint:
    """Simulate a :mod:`repro.parallel.component_stage` stage at one node count.

    Mirrors the skeleton ``mpi_inchworm`` and ``mpi_chrysalis_backend``
    share: every rank pays the replicated ``setup_s``; the items of
    ``component_costs`` are dealt by the cost-blind chunked round-robin
    or by the master's LPT (descending cost to the least-loaded rank);
    each rank runs *all* its items through one dynamically-scheduled
    OpenMP team, so its time is ``dynamic_makespan(its costs,
    nthreads)``; and the merge pools ``gather_bytes`` with one allgather
    (``None``: nothing is pooled, the walk-only Butterfly sweep).  An
    item is indivisible, so the heaviest is the floor the dynamic deal
    converges to: a k-mer component for Inchworm; for the back end a
    (component, read block) unit, a component's walk on its first.
    """
    if nodes <= 0:
        raise ScheduleError(f"nodes must be positive, got {nodes}")
    costs = np.asarray(component_costs, dtype=float)
    mine = _deal_indices(nodes, costs, nthreads, strategy, chunk_size)
    times = np.array(
        [dynamic_makespan(costs[idx], nthreads) if idx else 0.0 for idx in mine]
    )
    pooled = gather_bytes is not None and nodes > 1
    return ComponentStagePoint(
        nodes=nodes,
        strategy=strategy,
        setup_s=setup_s,
        loop_max=float(times.max()),
        loop_min=float(times.min()),
        gather_s=float(network.allgatherv(nodes, gather_bytes)) if pooled else 0.0,
    )


def chrysalis_prefusion_total_s(
    nodes: int,
    build_costs: Sequence[float],
    quantify_costs: Sequence[float],
    walk_costs: Sequence[float],
    nthreads: int = 16,
    strategy: str = "round_robin",
    network: NetworkModel = IDATAPLEX_FDR10,
    graph_bytes: float = 0.0,
) -> float:
    """Total time of the pre-fusion driver path at one node count.

    The baseline the fused stage replaces: FastaToDebruijn and
    QuantifyGraph run *serially* on the front-end node (their costs sum,
    no matter how many nodes the job has), the quantified graphs are
    allgathered to every rank, and only the Butterfly walk distributes
    (:func:`simulate_component_stage` on the walk costs).
    """
    serial_middle = float(np.sum(build_costs) + np.sum(quantify_costs))
    pool = network.allgatherv(nodes, graph_bytes) if nodes > 1 else 0.0
    walk = simulate_component_stage(
        nodes, walk_costs, nthreads=nthreads, strategy=strategy
    ).loop_max
    return serial_middle + float(pool) + walk


# ---------------------------------------------------------------------------
# Jellyfish (distributed k-mer counting)
# ---------------------------------------------------------------------------


#: Assumed split of the serial Jellyfish time between the encoding scan
#: and the table merge (the scan — windowing, canonicalisation, hashing —
#: dominates a counting pass).
_JF_COUNT_SHARE = 0.8
_JF_MERGE_SHARE = 1.0 - _JF_COUNT_SHARE
#: Re-sorting the gathered owner slices touches already-sorted disjoint
#: runs, so it costs a fraction of a cold merge over the same pairs.
_JF_RESORT_DISCOUNT = 0.25
#: One exchanged (code, count) pair: uint64 + int64.
_JF_PAIR_BYTES = 16


@dataclass(frozen=True)
class JellyfishScalingPoint:
    """One node count's simulated distributed-Jellyfish timings."""

    nodes: int
    count_s: float  # slowest rank's encode + per-batch reduce
    exchange_s: float  # alltoall of the (code, count) buckets
    merge_s: float  # owner-slice sort + segmented sum
    gather_s: float  # allgather of the owner slices
    resort_s: float  # every rank's final sort of the pooled slices

    @property
    def total_s(self) -> float:
        return (
            self.count_s + self.exchange_s + self.merge_s + self.gather_s + self.resort_s
        )

    @property
    def comm_s(self) -> float:
        return self.exchange_s + self.gather_s


def simulate_jellyfish_point(
    nodes: int,
    workload: Optional["PaperScaleWorkload"] = None,
    calibration: PaperCalibration = CALIBRATION,
    network: NetworkModel = IDATAPLEX_FDR10,
    k: int = 25,
) -> JellyfishScalingPoint:
    """Simulate distributed Jellyfish at one node count.

    Mirrors :func:`repro.parallel.mpi_jellyfish.mpi_jellyfish`: the read
    stream deals ``1/nodes`` per rank (count scales), each rank's batch
    reduction emits at most ``min(local stream, distinct)`` pairs into
    the alltoall, owners merge ``1/nodes`` of the pooled pairs, and the
    allgather + final re-sort replicate the full table on every rank —
    the stage's Amdahl floor, visible as the speedup saturating in the
    ``fig-jellyfish`` sweep.  Absolute time is anchored by the paper's
    Fig 2 serial Jellyfish reading (``jellyfish_serial_s``); distinct
    k-mers come from the same per-base yield as the memory model.
    """
    from repro.cluster.memory import DISTINCT_KMERS_PER_BASE
    from repro.simdata.datasets import SUGARBEET_PAPER

    if nodes <= 0:
        raise ScheduleError(f"nodes must be positive, got {nodes}")
    workload = workload if workload is not None else SUGARBEET_PAPER
    total_kmers = float(workload.n_reads) * max(workload.read_len - k + 1, 0)
    distinct = float(workload.n_reads) * workload.read_len * DISTINCT_KMERS_PER_BASE
    serial = calibration.jellyfish_serial_s
    c_encode = _JF_COUNT_SHARE * serial / total_kmers
    c_merge = _JF_MERGE_SHARE * serial / distinct

    stream_per_rank = total_kmers / nodes
    pairs_per_rank = min(stream_per_rank, distinct)
    total_pairs = pairs_per_rank * nodes

    count = c_encode * stream_per_rank
    exchange = network.alltoall(nodes, total_pairs * _JF_PAIR_BYTES)
    merge = c_merge * total_pairs / nodes
    gather = network.allgatherv(nodes, distinct * _JF_PAIR_BYTES)
    resort = _JF_RESORT_DISCOUNT * c_merge * distinct
    return JellyfishScalingPoint(
        nodes=nodes,
        count_s=count,
        exchange_s=exchange,
        merge_s=merge,
        gather_s=gather,
        resort_s=resort,
    )


# ---------------------------------------------------------------------------
# Inchworm (component-partitioned distributed contig assembly)
# ---------------------------------------------------------------------------


#: Assumed split of the serial Inchworm time between the replicated setup
#: (error-kmer filter + vectorised component labelling, ids and costs —
#: ``np.minimum.at``/pointer-jump rounds over the table) and the greedy
#: extension walks that dominate the stage.
_IW_SETUP_SHARE = 0.05
_IW_ASSEMBLE_SHARE = 1.0 - _IW_SETUP_SHARE


def simulate_inchworm_point(
    nodes: int,
    component_costs: Sequence[float],
    calibration: PaperCalibration = CALIBRATION,
    nthreads: int = 16,
    strategy: str = "round_robin",
    contig_bytes: float = 0.0,
) -> ComponentStagePoint:
    """The distributed Inchworm at one node count, in paper seconds.

    :func:`simulate_component_stage` with absolute time anchored by the
    paper's Fig 2 serial Inchworm reading (``inchworm_serial_s``): the
    replicated component set-up takes its assumed share, the
    rest is spread over the components proportionally to their k-mer
    count mass, and the keyed contig strings are what the merge pools.
    """
    costs = np.asarray(component_costs, dtype=float)
    mass, serial = float(costs.sum()), calibration.inchworm_serial_s
    return simulate_component_stage(
        nodes, costs * (_IW_ASSEMBLE_SHARE * serial / mass if mass > 0 else 0.0),
        nthreads=nthreads, strategy=strategy,
        setup_s=_IW_SETUP_SHARE * serial, gather_bytes=contig_bytes,
    )


# ---------------------------------------------------------------------------
# Bowtie (Fig 10)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BowtieScalingPoint:
    """One node count's simulated parallel Bowtie timings (Fig 10)."""

    nodes: int
    split_s: float  # PyFasta partitioning (serial)
    bowtie_s: float  # slowest node's index build + alignment
    merge_s: float

    @property
    def total_s(self) -> float:
        return self.split_s + self.bowtie_s + self.merge_s


def simulate_bowtie_point(
    nodes: int,
    n_reads: int,
    calibration: PaperCalibration = CALIBRATION,
) -> BowtieScalingPoint:
    """Simulate the PyFasta-split Bowtie at one node count.

    Per-node time: ``index_build * frac + n_reads * (c0 + c1 * frac^gamma)``
    with ``frac = 1/nodes`` (PyFasta balances pieces by total bases, so
    the slowest node's share is ~1/nodes).
    """
    if nodes <= 0:
        raise ScheduleError(f"nodes must be positive, got {nodes}")
    frac = 1.0 / nodes
    split = calibration.pyfasta_split_s if nodes > 1 else 0.0
    bowtie = calibration.bowtie_index_build_s * frac + n_reads * (
        calibration.bowtie_read_cost_s
        + calibration.bowtie_hit_cost_s * frac**calibration.bowtie_gamma
    )
    merge = calibration.sam_merge_s_per_piece * nodes if nodes > 1 else 0.0
    return BowtieScalingPoint(nodes=nodes, split_s=split, bowtie_s=bowtie, merge_s=merge)


def simulate_bowtie_scaling(
    nodes_list: Sequence[int],
    n_reads: int = 129_800_000,
    calibration: PaperCalibration = CALIBRATION,
) -> List[BowtieScalingPoint]:
    """The Figure 10 sweep."""
    return [simulate_bowtie_point(n, n_reads, calibration) for n in nodes_list]


# ---------------------------------------------------------------------------
# Whole-workflow timelines (Figs 2, 11)
# ---------------------------------------------------------------------------


def simulate_serial_timeline(calibration: PaperCalibration = CALIBRATION) -> List[Span]:
    """Figure 2: original Trinity on one 16-core, 256 GB node.

    RAM figures come from :func:`repro.cluster.memory.model_stage_memory`
    — derived from the input statistics, not copied from the figure — and
    reproduce the paper's narrative: Jellyfish and Inchworm are the
    memory-hungry stages, Chrysalis/Butterfly are CPU-bound.
    """
    from repro.cluster.memory import model_stage_memory

    mem = model_stage_memory(nprocs=1)
    tl: List[Span] = []
    append_stage(tl, "jellyfish", calibration.jellyfish_serial_s, mem.jellyfish_gb)
    append_stage(tl, "inchworm", calibration.inchworm_serial_s, mem.inchworm_gb)
    append_stage(tl, "chrysalis.bowtie", calibration.bowtie_serial_total_s, mem.bowtie_gb)
    append_stage(tl, "chrysalis.graph_from_fasta", calibration.gff_serial_total_s, mem.gff_gb)
    append_stage(tl, "chrysalis.reads_to_transcripts", calibration.rtt_serial_total_s, mem.rtt_gb)
    append_stage(tl, "chrysalis.misc", calibration.chrysalis_misc_serial_s, mem.gff_gb)
    append_stage(tl, "butterfly", calibration.butterfly_serial_s, mem.butterfly_gb)
    return tl


def simulate_parallel_timeline(
    nodes: int = 16,
    workload: Optional[ChrysalisWorkload] = None,
    calibration: PaperCalibration = CALIBRATION,
    nthreads: int = 16,
    network: NetworkModel = IDATAPLEX_FDR10,
) -> List[Span]:
    """Figure 11: hybrid Trinity at ``nodes`` nodes (paper plots 16).

    Per the paper's caption, the Jellyfish/Inchworm front end is "not
    recorded" in the parallel trace; we include them (serial) so the
    Chrysalis reduction is visible in context, matching the figure's
    intent.  Per-node RAM drops to the 128 GB nodes' envelope.
    """
    from repro.cluster.memory import model_stage_memory

    workload = workload if workload is not None else build_workload()
    gff = simulate_gff_point(nodes, workload, calibration, nthreads, network)
    rtt = simulate_rtt_point(nodes, workload, calibration)
    bowtie = simulate_bowtie_point(nodes, 129_800_000, calibration)
    mem = model_stage_memory(nprocs=nodes)
    tl: List[Span] = []
    # Jellyfish/Inchworm still run on the big-memory node in the paper's
    # workflow ("Running instances of Inchworm/Jellyfish are not recorded
    # for MPI-parallelized Trinity", Fig 11 caption).
    append_stage(tl, "jellyfish", calibration.jellyfish_serial_s, mem.jellyfish_gb)
    append_stage(tl, "inchworm", calibration.inchworm_serial_s, mem.inchworm_gb)
    append_stage(tl, "chrysalis.bowtie[mpi]", bowtie.total_s, mem.bowtie_gb)
    append_stage(tl, "chrysalis.graph_from_fasta[mpi]", gff.total_s, mem.gff_gb)
    append_stage(tl, "chrysalis.reads_to_transcripts[mpi]", rtt.total_s, mem.rtt_gb)
    append_stage(tl, "chrysalis.misc", calibration.chrysalis_misc_serial_s, mem.gff_gb)
    append_stage(tl, "butterfly", calibration.butterfly_serial_s, mem.butterfly_gb)
    return tl


def chrysalis_total_s(
    gff: GffScalingPoint,
    rtt: RttScalingPoint,
    bowtie: BowtieScalingPoint,
    calibration: PaperCalibration = CALIBRATION,
) -> float:
    """Total Chrysalis time for one configuration (headline number)."""
    return gff.total_s + rtt.total_s + bowtie.total_s + calibration.chrysalis_misc_serial_s
