"""Thread-team execution: real results, simulated parallel time.

``ThreadTeam.map`` applies a function to every item serially (so the
result is exactly what an OpenMP loop would compute — OpenMP loops in
Chrysalis have no cross-iteration dependencies) and simultaneously
computes the virtual makespan a team of ``n_threads`` would have achieved
under ``schedule(dynamic)``, using either caller-supplied per-item costs or
measured per-item thread CPU time (GIL-contention-free, so costs do not
depend on how many simulated ranks run concurrently).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from repro.errors import ScheduleError
from repro.openmp.schedule import dynamic_makespan

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class TeamResult:
    """Results plus timing of one simulated parallel loop."""

    values: List
    makespan: float  # virtual seconds for the team
    serial_time: float  # sum of per-item costs
    n_threads: int

    @property
    def speedup(self) -> float:
        return self.serial_time / self.makespan if self.makespan > 0 else 1.0

    def as_span_attrs(self) -> dict:
        """Attrs dict for the Span covering this loop on a rank's clock."""
        return {
            "items": len(self.values),
            "serial_time": self.serial_time,
            "n_threads": self.n_threads,
            "speedup": self.speedup,
        }


class ThreadTeam:
    """A simulated OpenMP thread team.

    Parameters
    ----------
    n_threads:
        Team size (the paper runs 16 threads per node).
    """

    def __init__(self, n_threads: int) -> None:
        if n_threads <= 0:
            raise ScheduleError(f"n_threads must be positive, got {n_threads}")
        self.n_threads = n_threads

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        costs: Optional[Sequence[float]] = None,
    ) -> TeamResult:
        """Apply ``fn`` to every item; simulate the team's makespan.

        If ``costs`` is omitted, per-item cost is measured as the CPU time
        of the calling thread (``time.thread_time``); when provided, it
        must align with ``items``.  Thread CPU time — not wall time — is
        the faithful cost: simulated ranks run as concurrent host threads,
        and wall-clock measured inside one of them grows with the number
        of peers contending for the GIL, which would make virtual costs a
        function of nprocs instead of the workload.
        """
        values: List[R] = []
        if costs is None:
            measured = np.zeros(len(items))
            for i, item in enumerate(items):
                t0 = time.thread_time()
                values.append(fn(item))
                measured[i] = time.thread_time() - t0
            cost_arr = measured
        else:
            cost_arr = np.asarray(costs, dtype=float)
            if cost_arr.shape != (len(items),):
                raise ScheduleError(
                    f"costs shape {cost_arr.shape} does not match {len(items)} items"
                )
            values = [fn(item) for item in items]
        makespan = dynamic_makespan(cost_arr, self.n_threads)
        return TeamResult(
            values=values,
            makespan=makespan,
            serial_time=float(cost_arr.sum()),
            n_threads=self.n_threads,
        )

    def batch(
        self,
        values: Sequence[R],
        total_cost: float,
        weights: Optional[Sequence[float]] = None,
    ) -> TeamResult:
        """Simulate the team over items computed by one vectorised call.

        Batched kernels produce all of a loop's results in one array pass,
        so there is no per-item ``fn`` to measure.  The measured batch
        cost (thread CPU time of the single call) is apportioned across
        the items — proportionally to ``weights`` when given (e.g. k-mers
        per read), evenly otherwise.

        A fused array region has no per-item dispatch, so its makespan is
        the analytic work-span bound ``max(total/n_threads, max_item)``
        (perfect load balance, floored by the largest indivisible item)
        rather than a per-item schedule simulation — the items here are
        an accounting fiction for the one vectorised call, and simulating
        a dispatch loop over thousands of them would dominate the very
        kernel being modelled.
        """
        n = len(values)
        if n == 0:
            return TeamResult(values=list(values), makespan=0.0, serial_time=0.0,
                              n_threads=self.n_threads)
        if weights is None:
            max_item = total_cost / n
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise ScheduleError(
                    f"weights shape {w.shape} does not match {n} items"
                )
            wsum = float(w.sum())
            max_item = (
                total_cost * float(w.max()) / wsum if wsum > 0 else total_cost / n
            )
        makespan = max(total_cost / self.n_threads, max_item)
        return TeamResult(
            values=list(values),
            makespan=makespan,
            serial_time=float(total_cost),
            n_threads=self.n_threads,
        )
