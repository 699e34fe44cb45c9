"""Distributed Inchworm: component-partitioned contig assembly on MPI.

After the Jellyfish front end and the fused Chrysalis back end went
distributed, Inchworm was the last stage still assembling on the
front-end node — the dominant Amdahl term of the driver's timeline.
The escape hatch (as in distributed string-graph assemblers such as
Guidi et al.'s): the greedy walk only ever follows (k-1)-overlap
extension edges that land inside the filtered counter, so it can never
leave the connected component of its seed.  Contig assembly therefore
factors exactly over the components of the k-mer overlap graph
(:mod:`repro.trinity.kmer_components`):

1. the probe — where each stored k-mer's eight extensions land,
   :func:`~repro.trinity.inchworm.neighbours`, the stage's only table
   search — is owner-computes: every rank resolves one block of stored
   positions and the ``int32`` rows are pooled with one ``allgatherv``;
   the component labelling is read off the pooled probe and, with the
   global seed ranks, built once per simulation via ``comm.shared``,
   charged per-rank — what is left of the stage's replicated serial
   region;
2. components are dealt to ranks — chunked ``"round_robin"`` or
   master-dealt LPT ``"dynamic"``, the one deal of
   :mod:`repro.parallel.component_stage` — with per-component cost =
   the sum of member k-mer counts;
3. each rank deals its owned components to its ``n_threads`` simulated
   OpenMP threads (LPT over the same costs — hybrid MPI x threads) and
   makes *one* call to the component kernel
   :func:`~repro.trinity.inchworm.inchworm_assemble_components`, in
   which each thread orders its own members' landings into successor
   rows and walks them by lookup — the table is owner-built, never
   replicated — and ships back only the contig strings keyed by their
   seed's *global* seed-order rank;
4. the merge pools the keyed contigs and re-emits them in ascending
   key order — the exact global ``_seed_order`` sequence — renaming
   ``iw_contig_{i}`` globally.

Because a component-local seed order is the global order restricted to
the component (the comparator depends only on each k-mer's count, tie
hash and code), and walks in different components share no candidates,
the merged output is **byte-identical to serial**
:func:`~repro.trinity.inchworm.inchworm_assemble` at every rank count
and every thread count — under both deal strategies and under an
injected ``inchworm:assemble`` rank crash with survivor re-deal (tested
invariants, like the other stages).  Threads and their stragglers only
move virtual clocks; a component is indivisible across them, so the
thread holding the largest component is the floor of a rank's team.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PipelineError
from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.parallel import component_stage
from repro.parallel.chunks import static_block_ranges
from repro.parallel.recovery import with_retry
from repro.parallel.stage import parallel_stage
from repro.seq.kmer_index import KmerCounter
from repro.seq.records import Contig
from repro.trinity.inchworm import (
    InchwormConfig,
    _seed_order,
    inchworm_assemble_components,
    keyed_contigs,
    neighbours,
)
from repro.trinity.jellyfish import JellyfishCounts
from repro.trinity.kmer_components import (
    component_costs,
    component_members,
    kmer_components,
)
from repro.util.rng import derive_seed

PathLike = Union[str, Path]


@dataclass(frozen=True)
class InchwormInputs:
    """Workload data for distributed Inchworm (identical on every rank).

    The full Jellyfish counter; error-kmer filtering happens inside the
    stage so serial and distributed runs share the one threshold.
    """

    counts: JellyfishCounts


@dataclass(frozen=True)
class InchwormStageConfig:
    """Distribution knobs on top of the serial :class:`InchwormConfig`."""

    inchworm: InchwormConfig = InchwormConfig()
    n_threads: int = 1  # simulated OpenMP threads per rank
    strategy: str = "round_robin"  # or "dynamic" (master-dealt LPT)
    chunk_size: Optional[int] = None  # round_robin only; None -> default
    workdir: Optional[PathLike] = None  # merged contig FASTA (rank 0)
    #: Per-(rank, thread) straggler factors, one row per rank (from
    #: :func:`repro.parallel.driver._inchworm_slowdown_table`).  Purely
    #: a virtual-clock effect: output never depends on it.
    thread_slowdowns: Optional[Tuple[Tuple[float, ...], ...]] = None

    def __post_init__(self) -> None:
        component_stage.check_strategy(self.strategy, "Inchworm")
        if self.n_threads <= 0:
            raise PipelineError(
                f"inchworm n_threads must be positive, got {self.n_threads}"
            )


@dataclass
class InchwormOutputs:
    """What the distributed Inchworm computes."""

    contigs: List[Contig]  # full, global-seed-order (on all ranks)
    out_path: Optional[Path] = None  # merged FASTA (master, if written)
    n_components: int = 0  # k-mer-graph components in the whole workload


def _component_setup(
    filtered: KmerCounter, cfg: InchwormConfig, blocks: Sequence[np.ndarray]
):
    """The pooled probe, global seed ranks, component members and costs.

    Built once per simulated ``mpirun`` (every real rank would rebuild it
    redundantly — the stage's replicated serial region) and treated as
    read-only by all ranks.  ``blocks`` are the ranks' position blocks of
    :func:`~repro.trinity.inchworm.neighbours` in rank order; stacked
    they are ``landing``, the one search of the table: the components
    are read off it here and each owner orders its own rows of it later.
    ``seed_rank[p]`` is position ``p``'s rank in the global
    ``_seed_order`` permutation: the merge key space.
    """
    landing = np.concatenate(blocks)
    members = component_members(kmer_components(landing))
    costs = component_costs(filtered, members)
    perm = _seed_order(filtered, derive_seed(cfg.seed, "inchworm-ties"))
    seed_rank = np.empty(len(filtered), dtype=np.int64)
    seed_rank[perm] = np.arange(len(filtered), dtype=np.int64)
    return landing, seed_rank, members, costs


def _rank_slowdowns(
    config: InchwormStageConfig, rank: int
) -> Optional[Sequence[float]]:
    """This rank's thread-straggler row, or None when all-ones."""
    table = config.thread_slowdowns
    if table is None or rank >= len(table):
        return None
    row = table[rank]
    if all(f == 1.0 for f in row):
        return None
    return row


@parallel_stage(
    "inchworm",
    inputs=InchwormInputs,
    config=InchwormStageConfig,
    outputs=InchwormOutputs,
)
def mpi_inchworm(
    comm: SimComm,
    inputs: InchwormInputs,
    config: Optional[InchwormStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`.

    Every rank returns the full contig list in global seed order —
    byte-identical to serial
    :func:`~repro.trinity.inchworm.inchworm_assemble` (a tested
    invariant at nprocs 1/3/8, both deal strategies, any ``n_threads``,
    including under crash recovery).
    """
    config = config or InchwormStageConfig()
    cfg = config.inchworm
    counts = inputs.counts

    # Simulated counter read: the retryable I/O point for flaky-I/O
    # fault plans (a no-op in fault-free runs).
    with_retry(comm, "inchworm:read_counts", lambda: None)

    # -- the probe, owner-computes: each rank resolves the extensions of
    # its block of stored positions (every position costs the same, so
    # contiguous blocks balance) and the blocks are pooled.  Still
    # "components" (same label), no longer serial.
    with comm.region("inchworm:components"):
        filtered = comm.shared(
            "inchworm:filtered", lambda: counts.index.filtered(cfg.min_kmer_count)
        )
        with comm.compute("inchworm:probe"):
            block = neighbours(
                filtered, counts.canonical,
                *static_block_ranges(len(filtered), comm.rank, comm.size),
            )
        blocks = comm.allgatherv(block)

    # -- connected components of the k-mer overlap graph, read off it --------
    with comm.region("inchworm:components", serial=True):
        landing, seed_rank, members, costs = comm.shared(
            "inchworm:setup", lambda: _component_setup(filtered, cfg, blocks)
        )

    # -- deal components across ranks ----------------------------------------
    cids = list(range(len(members)))
    mine = component_stage.deal(
        comm, "inchworm", cids, lambda: costs,
        strategy=config.strategy,
        nthreads=config.n_threads,
        chunk_size=config.chunk_size,
    )

    # -- rows over my components, then the walks; only keyed strings ship -----
    with comm.region(
        "inchworm:assemble", strategy=config.strategy, components=len(mine)
    ):
        teams = component_stage.lpt_assign(
            [float(costs[cid]) for cid in mine], mine, config.n_threads
        )
        iw = inchworm_assemble_components(
            filtered,
            counts.canonical,
            cfg,
            landing,
            seed_rank,
            [[members[cid] for cid in team] for team in teams],
            _rank_slowdowns(config, comm.rank),
        )
        if mine:
            comm.clock.advance(
                iw.team.makespan,
                label="inchworm:assemble_components",
                attrs={
                    "components": len(mine),
                    "n_threads": config.n_threads,
                    "steps": iw.n_steps,
                },
            )

    # -- merge: pool keyed contigs, re-emit the global seed-order sequence ---
    contigs = keyed_contigs(component_stage.merge(comm, "inchworm", iw.keyed))
    out_path = component_stage.write_merged(
        comm, "inchworm:write_merged", config.workdir, "inchworm.contigs.fa",
        component_stage.fasta_writer(contigs),
    )

    return StageResult(
        stage="inchworm",
        outputs=InchwormOutputs(
            contigs=contigs, out_path=out_path, n_components=len(cids)
        ),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "n_components": float(len(cids)),
            "n_local_components": float(len(mine)),
            "n_contigs": float(len(contigs)),
            # Per-rank thread-team totals: the driver aggregates these
            # into the pipeline-level inchworm.speedup metric.
            "team_makespan_s": iw.team.makespan,
            "team_serial_s": iw.team.serial_time,
            "n_threads": float(config.n_threads),
            # The successor table as this rank holds it: the shared probe
            # plus the rows its own threads built.
            "table_bytes": float(landing.nbytes + iw.row_bytes),
        },
        rank=comm.rank,
    )
