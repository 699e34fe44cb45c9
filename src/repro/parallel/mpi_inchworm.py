"""Distributed Inchworm: component-partitioned contig assembly on MPI.

After the Jellyfish front end and the fused Chrysalis back end went
distributed, Inchworm was the last stage still assembling on the
front-end node — the dominant Amdahl term of the driver's timeline.
The escape hatch (as in distributed string-graph assemblers such as
Guidi et al.'s): the greedy walk only ever follows (k-1)-overlap
extension edges that land inside the solid counter, so it can never
leave the connected component of its seed.  Contig assembly therefore
factors exactly over the components of the k-mer overlap graph
(:mod:`repro.trinity.kmer_components`):

1. the probe — where each stored k-mer's eight extensions land,
   :func:`~repro.trinity.inchworm.neighbours`, the stage's only table
   search — is owner-computes: every rank resolves one block of stored
   positions and its ``u < v`` overlap edges
   (:func:`~repro.trinity.inchworm.probe`), pooled with one
   ``allgatherv``; what stays replicated — built once per simulation via
   ``comm.shared``, charged per-rank, the stage's serial region — is the
   union-find over the pooled edges, with each position's dense
   component id and each component's cost (the table itself is
   Jellyfish's solid one, taken as it is);
2. components are dealt to ranks — ``"round_robin"`` (``i mod p``) or
   LPT ``"dynamic"``, the one deal of
   :mod:`repro.parallel.component_stage` — with per-component cost =
   the sum of member k-mer counts;
3. each rank deals its owned components to its ``n_threads`` simulated
   OpenMP threads (LPT over the same costs — hybrid MPI x threads); one
   sort queues the rank's positions per thread in seed order
   (:func:`~repro.trinity.inchworm.seed_queues`), and the team runs
   :func:`~repro.trinity.inchworm.assemble_queue` on each thread's queue
   in a ``comm.map`` window: a thread builds its members' chain table
   and walks it a chain at a time — the table is owner-built,
   never replicated — and ships back only the contig strings keyed by
   their seed's comparator tuple ``(-count, tie hash, code)``: no global
   permutation is built;
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
invariants, like the other stages).  Threads and stragglers only move
virtual clocks — a straggling rank's clock stretches its whole team —
and a component is indivisible across threads, so the thread holding
the largest component is the floor of a rank's team.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PipelineError
from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage
from repro.parallel import component_stage
from repro.parallel.chunks import static_block_ranges
from repro.parallel.recovery import with_retry
from repro.seq.fasta import write_fasta
from repro.seq.kmer_index import KmerCounter
from repro.seq.records import Contig
from repro.trinity.inchworm import (
    InchwormConfig,
    assemble_queue,
    inchworm_assemble,
    keyed_contigs,
    probe,
    seed_queues,
)
from repro.trinity.kmer_components import component_ids, kmer_components

PathLike = Union[str, Path]


@dataclass(frozen=True)
class InchwormInputs:
    """Workload data for distributed Inchworm (identical on every rank).

    Jellyfish's solid table: error k-mers were dropped where they were
    counted, so both pipelines walk the one table, in its strand mode.
    """

    counts: KmerCounter


@dataclass(frozen=True)
class InchwormStageConfig:
    """Distribution knobs on top of the serial :class:`InchwormConfig`."""

    inchworm: InchwormConfig = InchwormConfig()
    n_threads: int = 1  # simulated OpenMP threads per rank
    strategy: str = "round_robin"  # or "dynamic" (LPT)
    workdir: Optional[PathLike] = None  # merged contig FASTA (rank 0)

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


def component_setup(filtered: KmerCounter, blocks: Sequence[Tuple[np.ndarray, np.ndarray]]):
    """The pooled probe, per-position component ids and component costs.

    Built once per simulated ``mpirun`` (every real rank would rebuild it
    redundantly — the stage's replicated serial region) and treated as
    read-only by all ranks.  ``blocks`` are the ranks'
    :func:`~repro.trinity.inchworm.probe` blocks in rank order: their
    stacked rows are ``landing``, the one search of the table, which
    owners build chain tables from later; the components are labelled
    on their pooled edges here.  A component's deal cost is its k-mer
    count mass: tables and walks are proportional to the k-mers it holds,
    and abundance weights the ones long walks are made of.
    """
    rows, edges = zip(*blocks)
    ids = component_ids(kmer_components(len(filtered), np.concatenate(edges, axis=1)))
    return np.concatenate(rows), ids, np.bincount(ids, weights=filtered.values)


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
    filtered = inputs.counts  # Jellyfish's solid table, as it is

    # Simulated counter read: the retryable I/O point for flaky-I/O
    # fault plans (a no-op in fault-free runs).
    with_retry(comm, "inchworm:read_counts", lambda: None)

    # -- the probe, owner-computes: each rank resolves the extensions of
    # its block of stored positions (every position costs the same, so
    # contiguous blocks balance) and reads its edges off them; the blocks
    # are pooled.  Still "components" (same label), not serial.
    with comm.region("inchworm:components"):
        with comm.compute("inchworm:probe"):
            block = probe(filtered, *static_block_ranges(len(filtered), comm.rank, comm.size))
        blocks = comm.allgatherv(block)

    # -- connected components of the pooled overlap edges --------------------
    with comm.region("inchworm:components", serial=True):
        landing, ids, costs = comm.shared(
            "inchworm:setup", lambda: component_setup(filtered, blocks)
        )

    # -- deal components across ranks ----------------------------------------
    cids = list(range(len(costs)))
    mine = component_stage.deal(comm, "inchworm", cids, costs, strategy=config.strategy)

    # -- chain tables over my components, then the walks; keyed strings ship --
    with comm.region(
        "inchworm:assemble", strategy=config.strategy, components=len(mine)
    ):
        teams = component_stage.lpt_assign(
            [float(costs[cid]) for cid in mine], mine, config.n_threads
        )
        queues: List[np.ndarray] = []
        if mine:
            with comm.compute("inchworm:seed_queues"):
                queues = [q for q in seed_queues(filtered, cfg, ids, teams) if q.size]
        keyed = comm.map(
            "inchworm:assemble_components",
            lambda queue: assemble_queue(filtered, cfg, landing, queue),
            queues, config.n_threads, components=len(mine),
        )

    # -- merge: pool keyed contigs, re-emit the global seed-order sequence ---
    contigs = component_stage.merge(
        comm, "inchworm", [c for part in keyed for c in part], keyed_contigs
    )
    out_path = component_stage.write_merged(
        comm, "inchworm:write_merged", config.workdir, "inchworm.contigs.fa",
        component_stage.fasta_block(comm, contigs),
    )

    return StageResult(
        stage="inchworm",
        outputs=InchwormOutputs(contigs=contigs, out_path=out_path),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "n_components": float(len(cids)),
            "n_local_components": float(len(mine)),
            "n_contigs": float(len(contigs)),
        },
        rank=comm.rank,
    )


def serial_inchworm(
    inputs: InchwormInputs,
    config: Optional[InchwormStageConfig] = None,
    spans: Optional[List[Span]] = None,
) -> InchwormOutputs:
    """The serial body: :func:`mpi_inchworm`'s oracle, timed as ``inchworm``
    (one thread: ``n_threads`` and ``strategy`` are the MPI body's)."""
    config = config or InchwormStageConfig()
    with host_stage(spans, "inchworm"):
        contigs = inchworm_assemble(inputs.counts, config.inchworm)
    out_path = component_stage.stage_file(config.workdir, "inchworm.contigs.fa")
    if out_path is not None:
        write_fasta(out_path, [c.to_record() for c in contigs])
    return InchwormOutputs(contigs=contigs, out_path=out_path)
