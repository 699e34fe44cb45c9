"""Chunked round-robin work distribution (paper SS:III.B, Figure 3).

"Our current implementation uses a 'chunked round robin' strategy with
each MPI process getting a chunk, distributing to its multiple threads,
and then working on the next chunk."  Chunk *i* goes to rank
``i mod nprocs``; within a rank, each chunk's items are spread over the
OpenMP threads with dynamic scheduling.

The paper warns about the final partial chunk ("the end index of the
inner thread loop might have to be changed depending on how many Inchworm
contigs are left"); :func:`chunk_ranges` clips the last chunk, and a
property test asserts the partition is exact for all inputs.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import ScheduleError


def n_chunks(n_items: int, chunk_size: int) -> int:
    """Number of chunks covering ``n_items``."""
    if chunk_size <= 0:
        raise ScheduleError(f"chunk_size must be positive, got {chunk_size}")
    if n_items < 0:
        raise ScheduleError(f"n_items must be >= 0, got {n_items}")
    return (n_items + chunk_size - 1) // chunk_size


def chunk_ranges(n_items: int, chunk_size: int) -> List[Tuple[int, int]]:
    """All chunk (start, stop) ranges in order; last chunk may be short."""
    return [
        (c * chunk_size, min((c + 1) * chunk_size, n_items))
        for c in range(n_chunks(n_items, chunk_size))
    ]


def chunks_for_rank(total_chunks: int, rank: int, nprocs: int) -> List[int]:
    """Chunk indices assigned to ``rank`` under round-robin dealing."""
    if nprocs <= 0:
        raise ScheduleError(f"nprocs must be positive, got {nprocs}")
    if not (0 <= rank < nprocs):
        raise ScheduleError(f"rank {rank} out of range for nprocs {nprocs}")
    if total_chunks < 0:
        raise ScheduleError(f"total_chunks must be >= 0, got {total_chunks}")
    return list(range(rank, total_chunks, nprocs))


def rank_items(
    n_items: int, chunk_size: int, rank: int, nprocs: int
) -> Iterator[Tuple[int, int]]:
    """(start, stop) item ranges of every chunk owned by ``rank`` (its own
    entries of :func:`chunk_ranges`, without building everyone's)."""
    for c in chunks_for_rank(n_chunks(n_items, chunk_size), rank, nprocs):
        yield c * chunk_size, min((c + 1) * chunk_size, n_items)


def default_chunk_size(n_items: int, nprocs: int, nthreads: int) -> int:
    """The paper's chunk sizing: "proportional to the number of Inchworm
    contigs divided by the number of threads".

    We use ``n_items / (nprocs * nthreads * oversubscription)`` with 8x
    oversubscription so each rank sees several chunks even at 192 nodes
    (fewer chunks than ranks would idle ranks entirely).
    """
    if nprocs <= 0 or nthreads <= 0:
        raise ScheduleError("nprocs and nthreads must be positive")
    return max(1, n_items // (nprocs * nthreads * 8))


def static_block_ranges(n_items: int, rank: int, nprocs: int) -> Tuple[int, int]:
    """The pre-allocated contiguous-block strategy the paper tried first
    ("we pre-allocated chunks of Inchworm contigs to each MPI process.
    However, this did not give us a good speedup") — kept for the
    scheduling ablation benchmark."""
    if not (0 <= rank < nprocs):
        raise ScheduleError(f"rank {rank} out of range for nprocs {nprocs}")
    base, extra = divmod(n_items, nprocs)
    start = rank * base + min(rank, extra)
    stop = start + base + (1 if rank < extra else 0)
    return start, stop
