"""Distributed Jellyfish: k-mer counting as deal → exchange → owner-merge.

The last serial front-end compute of the hybrid driver.  The paper keeps
Jellyfish on the big-memory node (the Fig 11 caption's "not recorded"
stages) and flags its appetite as the pipeline's memory wall (§II.A);
distributed k-mer analysis à la HipMer is how that wall falls.  The
decomposition here is the standard one:

1. **deal** — read ``i`` belongs to rank ``i mod p`` (a pure function of
   the workload and the rank count, so a recovery relaunch on ``p - 1``
   survivors re-deals deterministically);
2. **count** — each rank counts its deal as the serial
   :func:`~repro.trinity.jellyfish.jellyfish_count` does, in
   ``batch_bases``-bounded batches, into one sorted-unique (code, count)
   table;
3. **exchange** — owners are *ranges* of k-mer space: each rank takes
   ``p - 1`` evenly spaced codes of its table, one ``allgather`` pools
   them, and the pooled sample's p-quantiles are the splitters.  A
   rank's table is already sorted, so each owner's part is one slice of
   it (``searchsorted`` on the splitters), and one ``alltoall`` ships
   the slices (comm cost charged to the virtual clocks by the network
   model).  At one rank no sample is taken: the one part is the rank's
   own table;
4. **owner merge** — each owner sums its parts with one sort +
   segmented-sum merge
   (:meth:`~repro.seq.kmer_index.KmerCounter.from_pairs`), or takes a
   lone part as it is, and writes its slice of ``jellyfish.kmers.fa``:
   rank order is code order, so the striped file is the serial dump of
   the *full* count;
5. **gather** — each owner keeps only its *solid* k-mers (count >=
   ``min_kmer_count``, the one threshold of the pipeline), and one
   ``allgather`` pools them.  The slices are disjoint ranges in rank
   order, so the table is their concatenation: built once per
   ``mpirun`` (``comm.shared("jellyfish:final_merge")``, its one-rank
   cost charged to every rank), no sort, all ranks holding the one
   read-only object.  Inchworm and the back end take it as they get it.

Because counting is a commutative multiset reduction and the owner
ranges tile k-mer space in order, the result — :class:`JellyfishCounts`
index arrays *and* the ``jellyfish dump`` file bytes — is **identical to
the serial body** at every rank count (a tested invariant at nprocs
1/3/8, including under an injected rank crash with survivor re-deal, and
over drawn reads at 1-8 ranks).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage
from repro.parallel.component_stage import stage_file, write_merged
from repro.parallel.recovery import with_retry
from repro.seq.kmer_index import KmerCounter, format_counter_dump
from repro.seq.records import SeqRecord
from repro.trinity.jellyfish import (
    JellyfishConfig,
    JellyfishCounts,
    jellyfish_count,
    jellyfish_dump,
)

PathLike = Union[str, Path]


@dataclass(frozen=True)
class JellyfishInputs:
    """Workload data for distributed Jellyfish (identical on every rank)."""

    reads: Sequence[SeqRecord]


@dataclass(frozen=True)
class JellyfishStageConfig:
    """Distribution knobs on top of the serial :class:`JellyfishConfig`."""

    jellyfish: JellyfishConfig = JellyfishConfig()
    #: The solid threshold: the stage hands on only k-mers counted at
    #: least this often (``TrinityConfig.min_kmer_count``); the dump
    #: holds them all.
    min_kmer_count: int = 2
    workdir: Optional[PathLike] = None  # the ranks write jellyfish.kmers.fa here


@dataclass
class JellyfishOutputs:
    """What the distributed Jellyfish computes."""

    counts: JellyfishCounts  # the solid table (identical on all ranks)
    out_path: Optional[Path] = None  # the dump file (on rank 0, if written)


def _merge_parts(parts: Sequence[Tuple[np.ndarray, np.ndarray]], k: int) -> KmerCounter:
    """Sum sorted-unique (code, count) parts into one table; a lone part
    is taken as it is."""
    parts = [part for part in parts if part[0].size]
    if len(parts) == 1:
        return KmerCounter(k, *parts[0])
    if not parts:
        return KmerCounter.empty(k)
    return KmerCounter.from_pairs(
        np.concatenate([c for c, _n in parts]), np.concatenate([n for _c, n in parts]), k
    )


def _splitters(comm: SimComm, codes: np.ndarray) -> np.ndarray:
    """The ``p - 1`` range boundaries of k-mer space: the p-quantiles of
    the ranks' pooled samples of ``p - 1`` evenly spaced sorted codes."""
    p = comm.size
    sample = codes[np.arange(1, p) * codes.size // p] if codes.size else codes
    pooled = np.sort(np.concatenate(comm.allgather(sample)))
    return pooled[np.arange(1, p) * pooled.size // p] if pooled.size else np.zeros(p - 1, np.uint64)


def mpi_jellyfish(
    comm: SimComm,
    inputs: JellyfishInputs,
    config: Optional[JellyfishStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`.

    Every rank returns the merged solid :class:`JellyfishCounts` — index
    arrays identical to :func:`serial_jellyfish`'s at any rank count.
    """
    config = config or JellyfishStageConfig()
    jcfg = config.jellyfish
    k, canonical = jcfg.k, jcfg.canonical
    reads = inputs.reads

    # Simulated read-set ingest: the retryable I/O point for flaky-I/O
    # fault plans (a no-op in fault-free runs).
    with_retry(comm, "jellyfish:read_reads", lambda: None)

    # -- deal: read i -> rank i mod p ---------------------------------------
    mine = [reads[i] for i in range(comm.rank, len(reads), comm.size)]

    # -- count my deal in batches, into one sorted-unique table -------------
    with comm.region("jellyfish:count", reads=len(mine)), comm.compute("jellyfish:encode"):
        local = jellyfish_count(mine, k, canonical, jcfg.batch_bases).index

    # -- exchange: each owner's range is one slice of my sorted table -------
    with comm.region("jellyfish:exchange"):
        bounds = [0, local.codes.size]
        if comm.size > 1:
            bounds[1:1] = np.searchsorted(local.codes, _splitters(comm, local.codes)).tolist()
        received = comm.alltoall([
            (local.codes[lo:hi], local.values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ])

    # -- owner merge: one sort + segmented sum over my range, and my slice
    # of the dump (rank order is code order) --------------------------------
    with comm.region("jellyfish:merge"), comm.compute("jellyfish:merge_sort"):
        owned = _merge_parts(received, k)
    out_path = write_merged(
        comm, "jellyfish:write_dump", config.workdir, "jellyfish.kmers.fa",
        lambda: format_counter_dump(owned.codes, owned.values, k),
    )

    # -- gather: pool the owners' solid slices onto every rank; their
    # concatenation is one shared object, its one-rank build charged to
    # every rank ----------------------------------------------------------
    with comm.region("jellyfish:gather"):
        solid = owned.filtered(config.min_kmer_count)
        parts = comm.allgather((solid.codes, solid.values, len(owned)))

        def final_merge() -> JellyfishCounts:
            # Disjoint ranges in rank order: the concatenation is sorted-unique.
            codes, values, _sizes = zip(*parts)
            index = KmerCounter(k, np.concatenate(codes), np.concatenate(values))
            return JellyfishCounts(k=k, canonical=canonical, index=index)

        counts = comm.shared("jellyfish:final_merge", final_merge)

    return StageResult(
        stage="jellyfish",
        outputs=JellyfishOutputs(counts=counts, out_path=out_path),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "n_reads": float(len(reads)),
            "n_local_reads": float(len(mine)),
            "n_local_kmers": float(local.total),
            "n_owned_kmers": float(len(owned)),
            "n_kmers": float(sum(n for _c, _v, n in parts)),
        },
        rank=comm.rank,
    )


def serial_jellyfish(
    inputs: JellyfishInputs,
    config: Optional[JellyfishStageConfig] = None,
    spans: Optional[List[Span]] = None,
) -> JellyfishOutputs:
    """The serial body: :func:`mpi_jellyfish`'s oracle, timed as ``jellyfish``:
    the full count dumped, its solid k-mers handed on."""
    config = config or JellyfishStageConfig()
    jcfg = config.jellyfish
    with host_stage(spans, "jellyfish"):
        counts = jellyfish_count(
            inputs.reads, jcfg.k, canonical=jcfg.canonical, batch_bases=jcfg.batch_bases
        )
        solid = counts.filtered(config.min_kmer_count)
    out_path = stage_file(config.workdir, "jellyfish.kmers.fa")
    if out_path is not None:
        jellyfish_dump(counts, out_path)
    return JellyfishOutputs(counts=solid, out_path=out_path)
