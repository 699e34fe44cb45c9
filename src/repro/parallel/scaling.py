"""Calibrated paper-scale replays of the scaling experiments (Figs 7-11).

These functions re-run the paper's *decomposition* — chunked round-robin
dealing, per-chunk OpenMP dynamic scheduling, Allgatherv pooling, serial
regions — over the sampled sugarbeet-scale workload, with absolute time
anchored by :data:`repro.cluster.costmodel.CALIBRATION`.  The speedups,
shares and imbalances are *outputs* of the schedule simulation, not
inputs (see DESIGN.md SS:5).

Every replay is one loop: :func:`rank_loads` deals item costs with the
stages' own deals (:mod:`repro.parallel.chunks`,
:mod:`repro.parallel.component_stage`) and times each rank's OpenMP team
with :func:`repro.openmp.schedule.dynamic_makespan`; a
:class:`ScalingPoint` keeps each phase's slowest and fastest rank.  The
same deal code drives the real miniature runs, so the model cannot drift
from the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.costmodel import CALIBRATION
from repro.cluster.memory import DISTINCT_KMERS_PER_BASE, model_stage_memory
from repro.cluster.workload import ChrysalisWorkload, build_workload
from repro.errors import ScheduleError
from repro.mpi.network import IDATAPLEX_FDR10
from repro.obs.span import Span, append_stage
from repro.openmp.schedule import dynamic_makespan
from repro.parallel.chunks import CHUNKS_TOTAL, chunk_ranges, chunk_size, static_block_ranges
from repro.parallel.component_stage import STRATEGIES, assign
from repro.simdata.datasets import SUGARBEET_PAPER

#: One paper node's OpenMP team (2x 8-core SandyBridge).
TEAM = 16
#: Blue Wonder's FDR10 InfiniBand, the one network every replay pools over.
NETWORK = IDATAPLEX_FDR10


@dataclass(frozen=True)
class ScalingPoint:
    """One node count of a replay: each phase's slowest and fastest rank.

    Phases are keyed by the stage's ``phase.<name>_s`` region where it
    has one (``loop1``, ``align``, ``assemble``, ...).  ``p.<phase>_max``,
    ``p.<phase>_min`` and ``p.<phase>_imbalance`` read one phase; the
    total sums the slowest ranks' phases.
    """

    nodes: int
    phases: Dict[str, Tuple[float, float]]  # phase -> (max, min) over ranks

    @classmethod
    def of(cls, nodes: int, **terms) -> "ScalingPoint":
        """A term is one value per rank (an array) or one for every rank."""
        return cls(nodes, {k: (float(np.max(v)), float(np.min(v))) for k, v in terms.items()})

    def __getattr__(self, name: str) -> float:
        phase, _, stat = name.rpartition("_")
        try:
            hi, lo = self.__dict__["phases"][phase]
        except KeyError:
            raise AttributeError(name) from None
        if stat == "max":
            return hi
        if stat == "min":
            return lo
        if stat == "imbalance":
            return hi / lo if lo > 0 else float("inf")
        raise AttributeError(name)

    @property
    def total_s(self) -> float:
        return sum(hi for hi, _ in self.phases.values())

    @property
    def loops_share(self) -> float:
        """Share of the total in the rank-parallel ``loop*`` phases (Fig 8)."""
        loops = sum(hi for k, (hi, _) in self.phases.items() if k.startswith("loop"))
        return loops / self.total_s


def at(points: Sequence[ScalingPoint], nodes: int) -> ScalingPoint:
    """The point of a sweep at ``nodes``."""
    for p in points:
        if p.nodes == nodes:
            return p
    raise KeyError(f"no simulated point at {nodes} nodes")


def rank_loads(
    costs: Sequence[float],
    nodes: int,
    strategy: str = "round_robin",
    nthreads: int = TEAM,
) -> np.ndarray:
    """Each rank's time under one deal of the items.

    ``round_robin`` — item ``i`` to rank ``i mod nodes`` — and
    ``dynamic`` — LPT — are :func:`~repro.parallel.component_stage.assign`'s
    lists, the ones every rank's ``deal`` takes its row of;
    ``static_block`` — the paper's rejected pre-allocation.  A rank runs
    all its items through one dynamically scheduled team of ``nthreads``.
    """
    if nodes <= 0:
        raise ScheduleError(f"nodes must be positive, got {nodes}")
    costs = np.asarray(costs, dtype=float)
    if strategy == "static_block":
        dealt = [range(*static_block_ranges(costs.size, r, nodes)) for r in range(nodes)]
    elif strategy in STRATEGIES:
        dealt = assign(strategy, range(costs.size), nodes, costs)
    else:
        raise ScheduleError(f"unknown strategy {strategy!r}")
    return np.array(
        [dynamic_makespan(costs[np.asarray(mine, dtype=np.intp)], nthreads) for mine in dealt]
    )


def chunk_makespans(costs: np.ndarray, chunk_size: int) -> np.ndarray:
    """Each chunk's makespan on one team: the items of a deal whose ranks
    run their chunks one after another (GraphFromFasta's loops)."""
    return np.array(
        [dynamic_makespan(costs[a:b], TEAM) for a, b in chunk_ranges(costs.size, chunk_size)]
    )


# ---------------------------------------------------------------------------
# Chrysalis: GraphFromFasta (Figs 7, 8), ReadsToTranscripts (Fig 9),
# Bowtie (Fig 10)
# ---------------------------------------------------------------------------


def simulate_gff(
    nodes: Sequence[int],
    workload: ChrysalisWorkload,
    strategy: str = "round_robin",
    chunks_total: int = CHUNKS_TOTAL,
) -> List[ScalingPoint]:
    """Hybrid GraphFromFasta, 16 threads per node (Fig 7: 16-192 nodes).

    The chunks are sized by the stage's own :func:`chunk_size`.  A chunk's
    team makespan does not depend on the node count, so each chunk size
    is timed once and its chunks dealt whole; the static-block deal hands
    each rank one block of contigs instead.
    """
    cal = CALIBRATION
    loops = (workload.loop1_costs, workload.loop2_costs)
    timed: Dict[int, List[np.ndarray]] = {}  # chunk size -> each loop's chunk makespans

    def loop_loads(n: int, loop: int) -> np.ndarray:
        if strategy == "static_block":
            return rank_loads(loops[loop], n, strategy)
        size = chunk_size(workload.n_contigs, n, TEAM, chunks_total)
        if size not in timed:
            timed[size] = [chunk_makespans(c, size) for c in loops]
        return rank_loads(timed[size][loop], n, strategy, 1)

    return [
        ScalingPoint.of(
            n,
            loop1=loop_loads(n, 0) + cal.gff_loop1_rank_overhead_s,
            loop2=loop_loads(n, 1) + cal.gff_loop2_rank_overhead_s,
            comm=NETWORK.allgatherv(n, workload.weld_payload_bytes)
            + NETWORK.allgatherv(n, workload.pair_payload_bytes),
            setup=cal.gff_serial_region_s,
        )
        for n in nodes
    ]


def gff_serial_baseline_s() -> float:
    """The OpenMP-only single-node GraphFromFasta time (paper: 122 610 s)."""
    cal = CALIBRATION
    loops = (cal.gff_loop1_thread_work_s + cal.gff_loop2_thread_work_s) / 16.0
    return loops + cal.gff_serial_region_s


def simulate_rtt(
    nodes: Sequence[int],
    workload: ChrysalisWorkload,
    read_s: float = CALIBRATION.rtt_redundant_read_s,
) -> List[ScalingPoint]:
    """Hybrid ReadsToTranscripts (Fig 9: 4-32 nodes).

    Chunk ``i`` of ``max_mem_reads`` reads goes to rank ``i mod nodes``,
    and every rank pays ``read_s`` to read the reads file (the shipped
    design reads all of it, page-cached).
    """
    cal = CALIBRATION
    return [
        ScalingPoint.of(
            n,
            loop=rank_loads(workload.rtt_chunk_costs, n, "round_robin", 1) + read_s,
            setup=cal.rtt_assign_s,
            concat=cal.rtt_concat_s,
        )
        for n in nodes
    ]


def rtt_serial_baseline_s() -> float:
    """Single-node ReadsToTranscripts (paper: 20 190 s).

    Includes the serial streaming path's residual overhead (see the
    FLAGGED note in :mod:`repro.cluster.costmodel`).
    """
    cal = CALIBRATION
    return cal.rtt_loop_work_s + cal.rtt_assign_s + cal.rtt_serial_residual_s


def simulate_bowtie(
    nodes: Sequence[int], n_reads: int = SUGARBEET_PAPER.n_reads
) -> List[ScalingPoint]:
    """The PyFasta-split Bowtie (Fig 10).

    Per-node time: ``index_build * frac + n_reads * (c0 + c1 * frac^gamma)``
    with ``frac = 1/nodes`` (PyFasta balances pieces by total bases, so
    the slowest node's share is ~1/nodes).
    """
    cal = CALIBRATION
    points = []
    for n in nodes:
        if n <= 0:
            raise ScheduleError(f"nodes must be positive, got {n}")
        frac = 1.0 / n
        points.append(
            ScalingPoint.of(
                n,
                split=cal.pyfasta_split_s if n > 1 else 0.0,
                align=cal.bowtie_index_build_s * frac
                + n_reads * (cal.bowtie_read_cost_s + cal.bowtie_hit_cost_s * frac**cal.bowtie_gamma),
                merge=cal.sam_merge_s_per_piece * n if n > 1 else 0.0,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Front end: Jellyfish and Inchworm
# ---------------------------------------------------------------------------


#: Assumed split of the serial Jellyfish time between the encoding scan
#: and the table merge (the scan — windowing, canonicalisation, hashing —
#: dominates a counting pass).
_JF_COUNT_SHARE = 0.8
_JF_MERGE_SHARE = 1.0 - _JF_COUNT_SHARE
#: The solid share of the distinct k-mers: only owners' solid slices are
#: gathered.  Measured 39 % on whitefly-half (10 224 of 26 313) and 44 %
#: at 16x its size.
_JF_SOLID_SHARE = 0.4
#: One exchanged (code, count) pair: uint64 + int64.
_JF_PAIR_BYTES = 16
#: The assembly k-mer length.
_JF_K = 25


def simulate_jellyfish(nodes: Sequence[int]) -> List[ScalingPoint]:
    """Distributed Jellyfish over the sugarbeet reads.

    Mirrors :func:`repro.parallel.mpi_jellyfish.mpi_jellyfish`: the read
    stream deals ``1/nodes`` per rank (count scales), each rank's batch
    reduction emits at most ``min(local stream, distinct)`` pairs into
    the alltoall, owners merge ``1/nodes`` of the pooled pairs, and an
    allgatherv of their solid slices, concatenated in range order,
    replicates the solid table on every rank — the stage's Amdahl floor,
    visible as the speedup saturating in the ``fig-jellyfish`` sweep.
    Absolute time is anchored by the paper's
    Fig 2 serial Jellyfish reading (``jellyfish_serial_s``); distinct
    k-mers come from the same per-base yield as the memory model.
    """
    wl = SUGARBEET_PAPER
    total_kmers = float(wl.n_reads) * max(wl.read_len - _JF_K + 1, 0)
    distinct = float(wl.n_reads) * wl.read_len * DISTINCT_KMERS_PER_BASE
    serial = CALIBRATION.jellyfish_serial_s
    c_encode = _JF_COUNT_SHARE * serial / total_kmers
    c_merge = _JF_MERGE_SHARE * serial / distinct
    points = []
    for n in nodes:
        if n <= 0:
            raise ScheduleError(f"nodes must be positive, got {n}")
        stream_per_rank = total_kmers / n
        total_pairs = min(stream_per_rank, distinct) * n
        points.append(
            ScalingPoint.of(
                n,
                count=c_encode * stream_per_rank,
                exchange=NETWORK.alltoall(n, total_pairs * _JF_PAIR_BYTES),
                merge=c_merge * total_pairs / n,
                gather=NETWORK.allgatherv(n, _JF_SOLID_SHARE * distinct * _JF_PAIR_BYTES),
            )
        )
    return points


#: Assumed split of the serial Inchworm time between the replicated setup
#: (error-kmer filter + vectorised component labelling, ids and costs —
#: ``np.minimum.at``/pointer-jump rounds over the table) and the greedy
#: extension walks that dominate the stage.
_IW_SETUP_SHARE = 0.05
_IW_ASSEMBLE_SHARE = 1.0 - _IW_SETUP_SHARE


def simulate_inchworm(
    nodes: Sequence[int],
    component_costs: Sequence[float],
    strategy: str = "round_robin",
    contig_bytes: float = 0.0,
) -> List[ScalingPoint]:
    """The distributed Inchworm, 16 threads per node, in paper seconds.

    Every rank pays the replicated component set-up (its assumed share of
    the paper's Fig 2 serial Inchworm reading, ``inchworm_serial_s``); the
    rest is spread over the components by k-mer count mass and dealt as
    ``mpi_inchworm`` deals them; the merge pools the keyed contigs.  A
    component is indivisible, so the heaviest is the floor the dynamic
    deal converges to.
    """
    costs = np.asarray(component_costs, dtype=float)
    mass, serial = float(costs.sum()), CALIBRATION.inchworm_serial_s
    work = costs * (_IW_ASSEMBLE_SHARE * serial / mass if mass > 0 else 0.0)
    return [
        ScalingPoint.of(
            n,
            components=_IW_SETUP_SHARE * serial,
            assemble=rank_loads(work, n, strategy),
            merge=NETWORK.allgatherv(n, contig_bytes),
        )
        for n in nodes
    ]


# ---------------------------------------------------------------------------
# Whole-workflow timelines (Figs 2, 11)
# ---------------------------------------------------------------------------


def simulate_serial_timeline() -> List[Span]:
    """Figure 2: original Trinity on one 16-core, 256 GB node.

    RAM figures come from :func:`repro.cluster.memory.model_stage_memory`
    — derived from the input statistics, not copied from the figure — and
    reproduce the paper's narrative: Jellyfish and Inchworm are the
    memory-hungry stages, Chrysalis/Butterfly are CPU-bound.
    """
    cal, mem = CALIBRATION, model_stage_memory(nprocs=1)
    tl: List[Span] = []
    append_stage(tl, "jellyfish", cal.jellyfish_serial_s, mem.jellyfish_gb)
    append_stage(tl, "inchworm", cal.inchworm_serial_s, mem.inchworm_gb)
    append_stage(tl, "chrysalis.bowtie", cal.bowtie_serial_total_s, mem.bowtie_gb)
    append_stage(tl, "chrysalis.graph_from_fasta", cal.gff_serial_total_s, mem.gff_gb)
    append_stage(tl, "chrysalis.reads_to_transcripts", cal.rtt_serial_total_s, mem.rtt_gb)
    append_stage(tl, "chrysalis.misc", cal.chrysalis_misc_serial_s, mem.gff_gb)
    append_stage(tl, "butterfly", cal.butterfly_serial_s, mem.butterfly_gb)
    return tl


def simulate_parallel_timeline(
    nodes: int = 16, workload: Optional[ChrysalisWorkload] = None
) -> List[Span]:
    """Figure 11: hybrid Trinity at ``nodes`` nodes (paper plots 16).

    Per the paper's caption, the Jellyfish/Inchworm front end is "not
    recorded" in the parallel trace; we include them (serial) so the
    Chrysalis reduction is visible in context, matching the figure's
    intent.  Per-node RAM drops to the 128 GB nodes' envelope.
    """
    workload = workload if workload is not None else build_workload()
    (gff,) = simulate_gff([nodes], workload)
    (rtt,) = simulate_rtt([nodes], workload)
    (bowtie,) = simulate_bowtie([nodes])
    cal, mem = CALIBRATION, model_stage_memory(nprocs=nodes)
    tl: List[Span] = []
    # Jellyfish/Inchworm still run on the big-memory node in the paper's
    # workflow ("Running instances of Inchworm/Jellyfish are not recorded
    # for MPI-parallelized Trinity", Fig 11 caption).
    append_stage(tl, "jellyfish", cal.jellyfish_serial_s, mem.jellyfish_gb)
    append_stage(tl, "inchworm", cal.inchworm_serial_s, mem.inchworm_gb)
    append_stage(tl, "chrysalis.bowtie[mpi]", bowtie.total_s, mem.bowtie_gb)
    append_stage(tl, "chrysalis.graph_from_fasta[mpi]", gff.total_s, mem.gff_gb)
    append_stage(tl, "chrysalis.reads_to_transcripts[mpi]", rtt.total_s, mem.rtt_gb)
    append_stage(tl, "chrysalis.misc", cal.chrysalis_misc_serial_s, mem.gff_gb)
    append_stage(tl, "butterfly", cal.butterfly_serial_s, mem.butterfly_gb)
    return tl
