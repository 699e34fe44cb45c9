"""OpenMP loop-schedule simulation.

Given per-item costs, compute the makespan a thread team would achieve
under ``static`` or ``dynamic`` scheduling.  GraphFromFasta's loops use
``schedule(dynamic)`` because "the work done per Inchworm contig is not
uniform" (paper SS:III.B); the difference between these two schedules on a
long-tailed cost distribution is one of the ablation benchmarks.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ScheduleError


class Schedule(str, Enum):
    """Supported OpenMP loop schedules."""

    STATIC = "static"
    DYNAMIC = "dynamic"
    GUIDED = "guided"


def _validate(costs: np.ndarray, n_threads: int, chunk: int) -> np.ndarray:
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 1:
        raise ScheduleError(f"costs must be 1-D, got shape {costs.shape}")
    if np.any(costs < 0):
        raise ScheduleError("item costs must be non-negative")
    if n_threads <= 0:
        raise ScheduleError(f"n_threads must be positive, got {n_threads}")
    if chunk <= 0:
        raise ScheduleError(f"chunk must be positive, got {chunk}")
    return costs


def static_chunks(n_items: int, n_threads: int) -> List[Tuple[int, int]]:
    """OpenMP ``schedule(static)`` ranges: contiguous, nearly equal counts.

    Returns ``[(start, stop), ...]`` per thread (stop exclusive); threads
    beyond the item count get empty ranges.
    """
    if n_threads <= 0:
        raise ScheduleError(f"n_threads must be positive, got {n_threads}")
    if n_items < 0:
        raise ScheduleError(f"n_items must be >= 0, got {n_items}")
    base, extra = divmod(n_items, n_threads)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for t in range(n_threads):
        count = base + (1 if t < extra else 0)
        ranges.append((start, start + count))
        start += count
    return ranges


def static_makespan(costs: Sequence[float], n_threads: int) -> float:
    """Makespan of ``schedule(static)``: max over contiguous blocks."""
    costs = _validate(np.asarray(costs, dtype=float), n_threads, 1)
    if costs.size == 0:
        return 0.0
    return max(
        float(costs[a:b].sum()) for a, b in static_chunks(costs.size, n_threads)
    )


def dynamic_makespan(costs: Sequence[float], n_threads: int, chunk: int = 1) -> float:
    """Makespan of ``schedule(dynamic, chunk)``.

    Event-queue simulation: items are dealt out in chunks of ``chunk`` in
    index order; the next chunk always goes to the earliest-free thread.
    """
    costs = _validate(np.asarray(costs, dtype=float), n_threads, chunk)
    n = costs.size
    if n == 0:
        return 0.0
    if n_threads == 1:
        return float(costs.sum())
    # Pre-sum chunk costs.
    n_chunks = (n + chunk - 1) // chunk
    csum = np.concatenate([[0.0], np.cumsum(costs)])
    chunk_costs = [
        float(csum[min((c + 1) * chunk, n)] - csum[c * chunk]) for c in range(n_chunks)
    ]
    heap = [(0.0, t) for t in range(n_threads)]
    heapq.heapify(heap)
    for cost in chunk_costs:
        free_at, t = heapq.heappop(heap)
        heapq.heappush(heap, (free_at + cost, t))
    return max(free_at for free_at, _ in heap)


def guided_makespan(costs: Sequence[float], n_threads: int, min_chunk: int = 1) -> float:
    """Makespan of ``schedule(guided, min_chunk)``.

    OpenMP guided scheduling deals exponentially shrinking chunks:
    each grab takes ``remaining / n_threads`` items (at least
    ``min_chunk``), trading dynamic's balancing for fewer dispatches.
    """
    costs = _validate(np.asarray(costs, dtype=float), n_threads, min_chunk)
    n = costs.size
    if n == 0:
        return 0.0
    csum = np.concatenate([[0.0], np.cumsum(costs)])
    heap = [(0.0, t) for t in range(n_threads)]
    heapq.heapify(heap)
    pos = 0
    while pos < n:
        take = max(min_chunk, (n - pos) // n_threads)
        take = min(take, n - pos)
        cost = float(csum[pos + take] - csum[pos])
        free_at, t = heapq.heappop(heap)
        heapq.heappush(heap, (free_at + cost, t))
        pos += take
    return max(free_at for free_at, _t in heap)


def simulate_schedule(
    costs: Sequence[float],
    n_threads: int,
    schedule: Schedule = Schedule.DYNAMIC,
    chunk: int = 1,
) -> float:
    """Makespan under the requested schedule."""
    if schedule is Schedule.STATIC:
        return static_makespan(costs, n_threads)
    if schedule is Schedule.DYNAMIC:
        return dynamic_makespan(costs, n_threads, chunk)
    if schedule is Schedule.GUIDED:
        return guided_makespan(costs, n_threads, chunk)
    raise ScheduleError(f"unknown schedule {schedule!r}")


def per_thread_busy_times(
    costs: Sequence[float], n_threads: int, chunk: int = 1
) -> np.ndarray:
    """Per-thread busy time under dynamic scheduling (for imbalance plots)."""
    costs = _validate(np.asarray(costs, dtype=float), n_threads, chunk)
    busy = np.zeros(n_threads)
    if costs.size == 0:
        return busy
    heap = [(0.0, t) for t in range(n_threads)]
    heapq.heapify(heap)
    n = costs.size
    for c0 in range(0, n, chunk):
        cost = float(costs[c0 : c0 + chunk].sum())
        free_at, t = heapq.heappop(heap)
        busy[t] += cost
        heapq.heappush(heap, (free_at + cost, t))
    return busy
