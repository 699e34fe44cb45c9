"""OpenMP ``schedule(dynamic)`` simulation.

Given per-item costs, compute the makespan a thread team achieves when
the next free thread always takes the next item.  Every team in the
pipeline runs this schedule: GraphFromFasta's loops use
``schedule(dynamic)`` because "the work done per Inchworm contig is not
uniform" (paper SS:III.B).
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.errors import ScheduleError


def dynamic_makespan(costs: Sequence[float], n_threads: int) -> float:
    """Makespan of ``schedule(dynamic)``.

    Event-queue simulation: items are dealt out one at a time in index
    order; the next item always goes to the earliest-free thread.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 1:
        raise ScheduleError(f"costs must be 1-D, got shape {costs.shape}")
    if np.any(costs < 0):
        raise ScheduleError("item costs must be non-negative")
    if n_threads <= 0:
        raise ScheduleError(f"n_threads must be positive, got {n_threads}")
    if costs.size == 0:
        return 0.0
    if n_threads == 1:
        return float(costs.sum())
    # Costs as differences of the running sum, not the costs themselves:
    # that rounding is what every recorded makespan was computed with.
    item_costs = np.diff(np.concatenate([[0.0], np.cumsum(costs)])).tolist()
    heap = [(0.0, t) for t in range(n_threads)]
    heapq.heapify(heap)
    for cost in item_costs:
        free_at, t = heapq.heappop(heap)
        heapq.heappush(heap, (free_at + cost, t))
    return max(free_at for free_at, _ in heap)
