"""Chunked round-robin work distribution (paper SS:III.B, Figure 3).

"Our current implementation uses a 'chunked round robin' strategy with
each MPI process getting a chunk, distributing to its multiple threads,
and then working on the next chunk."  Chunk *i* goes to rank
``i mod nprocs``; within a rank, each chunk's items are spread over the
OpenMP threads with dynamic scheduling.  :func:`chunk_size` is the one
sizing rule, for the stages and the paper-scale replays alike.

The paper warns about the final partial chunk ("the end index of the
inner thread loop might have to be changed depending on how many Inchworm
contigs are left"); :func:`chunk_ranges` clips the last chunk, and a
property test asserts the partition is exact for all inputs.
"""

from __future__ import annotations

from typing import List, Tuple

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


#: The paper-scale replays' chunk count: at 1.1 M contigs it gives 2 148
#: contigs a chunk, few enough chunks that the long cost tail produces the
#: Fig 7 imbalance at 192 ranks.
CHUNKS_TOTAL = 512


def chunk_size(
    n_items: int, nprocs: int, nthreads: int, chunks_total: int = CHUNKS_TOTAL
) -> int:
    """The one chunk sizing, "proportional to the number of Inchworm
    contigs divided by the number of threads".

    Where ``n_items >= nprocs * nthreads`` each rank gets
    ``n_items // (nprocs * nthreads)`` chunks of at least ``nthreads``
    items, so every chunk fills its rank's team; below that each rank gets
    about one chunk.  Never finer than ``n_items // chunks_total``: that
    floor keeps the paper-scale replay's chunks at every node count, and
    where it binds some ranks may get no chunk.
    """
    if nprocs <= 0 or nthreads <= 0 or chunks_total <= 0:
        raise ScheduleError("nprocs, nthreads and chunks_total must be positive")
    per_rank = max(1, n_items // (nprocs * nthreads))
    return max(n_items // (nprocs * per_rank), n_items // chunks_total, 1)


def static_block_ranges(n_items: int, rank: int, nprocs: int) -> Tuple[int, int]:
    """Rank ``rank``'s contiguous block ``[start, stop)`` of ``n_items``
    items over ``nprocs`` ranks, the first ``n_items % nprocs`` blocks one
    longer.  The deal of items that cost the same each: Inchworm's probe
    positions, Bowtie's read blocks, GFF's weldmer scan and
    ``component_stage.fasta_block``.  For contigs it is the pre-allocation
    the paper tried first ("we pre-allocated chunks of Inchworm contigs to
    each MPI process.  However, this did not give us a good speedup"),
    which the scheduling ablation replays."""
    if not (0 <= rank < nprocs):
        raise ScheduleError(f"rank {rank} out of range for nprocs {nprocs}")
    base, extra = divmod(n_items, nprocs)
    start = rank * base + min(rank, extra)
    stop = start + base + (1 if rank < extra else 0)
    return start, stop
