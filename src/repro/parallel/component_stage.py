"""The component-stage skeleton: deal -> per-item kernel -> keyed merge.

Every component-parallel stage has the same shape (the partition ->
local kernel -> exchange structure of distributed contig generation):
work items are dealt to ranks, each owner runs the serial kernel per
item, and the per-item results are pooled and re-emitted in ascending
key order — so the output never depends on the deal, and a crash
relaunch on ``p - 1`` survivors re-deals deterministically and
reproduces the same bytes.  This module is the one copy of everything
but the kernel; a stage plugs in *setup + cost vector + owned-ids loop
body + wire tuple* (:mod:`repro.parallel.mpi_chrysalis_backend`,
:mod:`repro.parallel.mpi_inchworm`).

Two dealing strategies:

* ``"round_robin"`` — id ``i`` of the list to rank ``i mod p``,
  cost-blind.  A rank runs its whole list as one team, so there is no
  chunk to fill: one-item chunks spread the ids most evenly;
* ``"dynamic"`` — LPT: the items in descending predicted cost, each to
  the least-loaded rank.  Every rank holds the cost vector, so every rank
  evaluates the same pure deal and takes its own row — no messages, as
  with the round-robin's ``i mod p``.
"""

from __future__ import annotations

import heapq
import os
from functools import partial
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.errors import PipelineError
from repro.mpi.comm import SimComm
from repro.parallel.chunks import static_block_ranges
from repro.parallel.recovery import with_retry
from repro.seq.fasta import format_fasta

PathLike = Union[str, Path]

#: Component-dealing strategies.
STRATEGIES = ("round_robin", "dynamic")


def check_strategy(strategy: str, what: str) -> None:
    """Reject an unknown dealing strategy for the ``what`` stage/config."""
    if strategy not in STRATEGIES:
        raise PipelineError(
            f"unknown {what} strategy {strategy!r}; known: {STRATEGIES}"
        )


def lpt_assign(
    costs: Sequence[float], ids: Sequence[int], nprocs: int
) -> List[List[int]]:
    """Longest-processing-time-first list scheduling: the items in
    descending cost (ties by id), each to the currently least-loaded rank
    (ties by rank); one id list per rank.  Pure and deterministic in
    ``(costs, ids, nprocs)`` — what every rank's deal and recovery's
    re-deal rely on.
    """
    loads = [(0.0, r) for r in range(nprocs)]  # sorted, hence already a heap
    dealt: List[List[int]] = [[] for _ in range(nprocs)]
    for cost, item in sorted(zip(costs, ids), key=lambda t: (-t[0], t[1])):
        load, r = heapq.heappop(loads)
        dealt[r].append(item)
        heapq.heappush(loads, (load + cost, r))
    return dealt


def assign(
    strategy: str,
    ids: Sequence[int],
    nprocs: int,
    costs: Optional[Sequence[float]] = None,
) -> List[List[int]]:
    """Every rank's ids under one deal; pure in its arguments.

    ``costs`` is indexable by id and read only under ``"dynamic"``; the
    round robin gives rank ``r`` the ids ``ids[r::nprocs]``.
    """
    if strategy == "dynamic":
        return lpt_assign([float(costs[i]) for i in ids], ids, nprocs)
    return [list(ids[r::nprocs]) for r in range(nprocs)]


def deal(
    comm: SimComm,
    prefix: str,
    ids: Sequence[int],
    costs: Optional[Sequence[float]],
    *,
    strategy: str,
) -> List[int]:
    """The ``<prefix>:deal`` region: row ``comm.rank`` of :func:`assign`.

    Every rank evaluates the same lists; the LPT pass is built once per
    ``mpirun`` (a ``comm.shared`` entry, uncharged like the round-robin's
    index arithmetic).
    """
    lists = partial(assign, strategy, ids, comm.size, costs)
    with comm.region(f"{prefix}:deal", strategy=strategy):
        if strategy == "dynamic":
            dealt = comm.shared(f"{prefix}:deal", lists, cost=0.0)
        else:
            dealt = lists()
    return dealt[comm.rank]


def merge(
    comm: SimComm, prefix: str, local: List[tuple], finish: Callable[[List[tuple]], Any]
) -> Any:
    """The ``<prefix>:merge`` region: allgather the per-item wire tuples,
    flatten them in ascending key (``item[0]``) order — independent of the
    deal — and return ``finish(flat)``.

    The flatten and ``finish`` are one uncharged ``comm.shared`` entry:
    every rank gets the same read-only object.
    """
    with comm.region(f"{prefix}:merge"):
        pooled = comm.allgather(local)
    return comm.shared(
        f"{prefix}:merge",
        lambda: finish(
            sorted((item for part in pooled for item in part), key=lambda item: item[0])
        ),
        cost=0.0,
    )


def fasta_block(comm: SimComm, items: Sequence[Any]) -> Callable[[], bytes]:
    """``render()`` of this rank's :func:`static_block_ranges` block of
    ``items`` (``to_record()``-able) as FASTA: its piece of the merged file."""
    block = items[slice(*static_block_ranges(len(items), comm.rank, comm.size))]
    return lambda: format_fasta([item.to_record() for item in block]).encode("ascii")


def stage_file(workdir: Optional[PathLike], filename: str) -> Optional[Path]:
    """Where a serial stage body writes its file: ``workdir/filename``,
    its directory made, or None without a ``workdir``."""
    if workdir is None:
        return None
    path = Path(workdir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_part(
    comm: SimComm,
    label: str,
    workdir: Optional[PathLike],
    filename: str,
    render: Callable[[], bytes],
) -> Optional[Path]:
    """Write this rank's own file, ``workdir/filename``, holding ``render()``.

    Rendering and writing are one retryable I/O point, ``label``, outside
    any compute window.  Returns the path, or None (nothing rendered or
    written) without a ``workdir``.
    """
    if workdir is None:
        return None
    path = Path(workdir) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    with_retry(comm, label, lambda: path.write_bytes(render()))
    return path


def write_merged(
    comm: SimComm,
    label: str,
    workdir: Optional[PathLike],
    filename: str,
    render: Callable[[], bytes],
) -> Optional[Path]:
    """Write ``workdir/filename`` striped over the ranks; returns the path
    on rank 0, None elsewhere (and, with no collective, on every rank
    without a ``workdir``).

    Every rank renders its own piece, ``render()``, charged as ``label``
    (thread CPU, like any concurrent rank code).  One allgather of the
    piece lengths places it: rank r's piece starts where ranks < r's end.
    Each rank writes its piece at that offset of a temporary sibling of
    the target under ``with_retry(label)``; after a barrier rank 0 trims
    the temporary to the total length and renames it onto the target, so
    neither a crashed attempt's pieces nor a longer stale file can show
    through.  The pieces are consecutive blocks of the merged, key-ordered
    result (or the ranks' own records, in rank order), so the file is
    byte-identical to a serial write at any nprocs.
    """
    if workdir is None:
        return None
    path = Path(workdir) / filename
    tmp = path.with_name(f"{path.name}.tmp")
    with comm.compute(label):
        piece = render()
    lengths = comm.allgather(len(piece))

    def pwrite() -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            written = os.pwrite(fd, piece, sum(lengths[: comm.rank]))
        finally:
            os.close(fd)
        if written != len(piece):
            raise OSError(f"short write to {tmp}: {written} of {len(piece)} bytes")

    with_retry(comm, label, pwrite)
    comm.barrier()
    if comm.rank != 0:
        return None
    os.truncate(tmp, sum(lengths))
    os.replace(tmp, path)
    return path
