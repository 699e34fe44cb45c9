"""Distributed Jellyfish: k-mer counting as deal → exchange → owner-merge.

The last serial front-end compute of the hybrid driver.  The paper keeps
Jellyfish on the big-memory node (the Fig 11 caption's "not recorded"
stages) and flags its appetite as the pipeline's memory wall (§II.A);
distributed k-mer analysis à la HipMer is how that wall falls.  The
decomposition here is the standard one:

1. **deal** — read ``i`` belongs to rank ``i mod p`` (a pure function of
   the workload and the rank count, so a recovery relaunch on ``p - 1``
   survivors re-deals deterministically);
2. **count** — each rank encodes + canonicalises its reads in
   ``batch_bases``-bounded batches (the serial
   :func:`~repro.trinity.jellyfish._batch_codes` kernel, which packs a
   cache-sized block of reads at a time), reduces each
   batch to (unique code, count) pairs, and buckets them by *owner*: the
   DSK multiplicative hash (:func:`~repro.trinity.dsk._partition_of`)
   over ``p`` partitions of k-mer space;
3. **exchange** — one ``alltoall`` ships every bucket to its owner
   (comm cost charged to the virtual clocks by the network model);
4. **owner merge** — each owner runs one sort + segmented-sum merge
   (:meth:`~repro.seq.kmer_index.KmerCounter.from_pairs`) over its
   disjoint slice of k-mer space;
5. **gather** — an ``allgather`` pools the owner slices; since the
   slices are disjoint, one final ``from_pairs`` just sorts them into
   the exact serial array.  Every rank would build that same table from
   the same snapshot, so it is built once per ``mpirun``
   (``comm.shared("jellyfish:final_merge")``, its one-rank cost charged
   to every rank) and all ranks hold the one read-only object.

Because counting is a commutative multiset reduction and the final
arrays are sorted-unique, the result — :class:`JellyfishCounts` index
arrays *and* the ``jellyfish dump`` file bytes — is **identical to
serial** :func:`~repro.trinity.jellyfish.jellyfish_count` at every rank
count (a tested invariant at nprocs 1/3/8, including under an injected
rank crash with survivor re-deal).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage
from repro.parallel.chunks import static_block_ranges
from repro.parallel.component_stage import stage_file, write_merged
from repro.parallel.recovery import with_retry
from repro.seq.kmer_index import KmerCounter, format_counter_dump
from repro.seq.kmers import base_blocks
from repro.seq.records import SeqRecord
from repro.trinity.dsk import _partition_of
from repro.trinity.jellyfish import (
    JellyfishConfig,
    JellyfishCounts,
    _batch_codes,
    jellyfish_count,
    jellyfish_dump,
)

PathLike = Union[str, Path]

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class JellyfishInputs:
    """Workload data for distributed Jellyfish (identical on every rank)."""

    reads: Sequence[SeqRecord]


@dataclass(frozen=True)
class JellyfishStageConfig:
    """Distribution knobs on top of the serial :class:`JellyfishConfig`."""

    jellyfish: JellyfishConfig = JellyfishConfig()
    workdir: Optional[PathLike] = None  # the ranks write jellyfish.kmers.fa here


@dataclass
class JellyfishOutputs:
    """What the distributed Jellyfish computes."""

    counts: JellyfishCounts  # full merged table (identical on all ranks)
    out_path: Optional[Path] = None  # the dump file (on rank 0, if written)


def _pack_pairs(
    codes: List[np.ndarray], counts: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate one destination's per-batch (code, count) buckets."""
    if not codes:
        return _EMPTY_U64, _EMPTY_I64
    return np.concatenate(codes), np.concatenate(counts)


def mpi_jellyfish(
    comm: SimComm,
    inputs: JellyfishInputs,
    config: Optional[JellyfishStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`.

    Every rank returns the full merged :class:`JellyfishCounts` —
    index arrays identical to serial
    :func:`~repro.trinity.jellyfish.jellyfish_count` at any rank count.
    """
    config = config or JellyfishStageConfig()
    jcfg = config.jellyfish
    k, canonical = jcfg.k, jcfg.canonical
    reads = inputs.reads

    # Simulated read-set ingest: the retryable I/O point for flaky-I/O
    # fault plans (a no-op in fault-free runs).
    with_retry(comm, "jellyfish:read_reads", lambda: None)

    # -- deal: read i -> rank i mod p ---------------------------------------
    mine = [reads[i].seq for i in range(comm.rank, len(reads), comm.size)]

    # -- count my deal in batches, bucketed by k-mer-space owner ------------
    send_codes: List[List[np.ndarray]] = [[] for _ in range(comm.size)]
    send_counts: List[List[np.ndarray]] = [[] for _ in range(comm.size)]
    n_local_kmers = 0
    with comm.region("jellyfish:count", reads=len(mine)), comm.compute("jellyfish:encode"):

        # A function, so a batch's code arrays die with its frame and not
        # with the stage's (~2 MB of peak RSS at 4 ranks when inlined).
        def _flush(seqs: List[str]) -> None:
            nonlocal n_local_kmers
            codes = _batch_codes(seqs, k, canonical)
            if codes.size == 0:
                return
            n_local_kmers += int(codes.size)
            uniq, cnts = np.unique(codes, return_counts=True)
            owner = _partition_of(uniq, comm.size).astype(np.intp)
            # The owners present, ascending (a bincount: plain np.unique hashes).
            for dest in np.flatnonzero(np.bincount(owner, minlength=comm.size)).tolist():
                sel = owner == dest
                send_codes[dest].append(uniq[sel])
                send_counts[dest].append(cnts[sel].astype(np.int64))

        for batch in base_blocks(mine, jcfg.batch_bases):
            _flush(batch)

    # -- exchange: ship each bucket to its owner ----------------------------
    with comm.region("jellyfish:exchange"):
        payload = [
            _pack_pairs(send_codes[dest], send_counts[dest])
            for dest in range(comm.size)
        ]
        received = comm.alltoall(payload)

    # -- owner merge: one sort + segmented sum over my k-mer-space slice ----
    with comm.region("jellyfish:merge"), comm.compute("jellyfish:merge_sort"):
        owned_codes, owned_counts = _pack_pairs(
            [c for c, _n in received if c.size],
            [n for c, n in received if c.size],
        )
        owned = KmerCounter.from_pairs(owned_codes, owned_counts, k)

    # -- gather: pool the disjoint owner slices onto every rank; the merged
    # table is one shared object, its one-rank build charged to every rank --
    def final_merge() -> JellyfishCounts:
        all_codes, all_values = _pack_pairs(
            [c for c, _v in parts if c.size], [v for c, v in parts if c.size]
        )
        # Owner slices are disjoint, so this from_pairs only sorts — the
        # result is the exact serial sorted-unique (read-only) array.
        index = KmerCounter.from_pairs(all_codes, all_values, k)
        return JellyfishCounts(k=k, canonical=canonical, index=index)

    with comm.region("jellyfish:gather"):
        parts = comm.allgather((owned.codes, owned.values))
        counts = comm.shared("jellyfish:final_merge", final_merge)

    # -- the dump file: each rank renders its block of the merged index -------
    index = counts.index
    block = slice(*static_block_ranges(len(index), comm.rank, comm.size))
    out_path = write_merged(
        comm, "jellyfish:write_dump", config.workdir, "jellyfish.kmers.fa",
        lambda: format_counter_dump(index.codes[block], index.values[block], k),
    )

    return StageResult(
        stage="jellyfish",
        outputs=JellyfishOutputs(counts=counts, out_path=out_path),
        makespan=comm.clock.now,
        metrics={
            **comm.phase_seconds(),
            "n_reads": float(len(reads)),
            "n_local_reads": float(len(mine)),
            "n_local_kmers": float(n_local_kmers),
            "n_owned_kmers": float(len(owned)),
            "n_kmers": float(len(counts)),
        },
        rank=comm.rank,
    )


def serial_jellyfish(
    inputs: JellyfishInputs,
    config: Optional[JellyfishStageConfig] = None,
    spans: Optional[List[Span]] = None,
) -> JellyfishOutputs:
    """The serial body: :func:`mpi_jellyfish`'s oracle, timed as ``jellyfish``."""
    config = config or JellyfishStageConfig()
    jcfg = config.jellyfish
    with host_stage(spans, "jellyfish"):
        counts = jellyfish_count(
            inputs.reads, jcfg.k, canonical=jcfg.canonical, batch_bases=jcfg.batch_bases
        )
    out_path = stage_file(config.workdir, "jellyfish.kmers.fa")
    if out_path is not None:
        jellyfish_dump(counts, out_path)
    return JellyfishOutputs(counts=counts, out_path=out_path)
