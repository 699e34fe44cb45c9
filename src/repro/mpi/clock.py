"""Per-rank virtual clocks.

A rank's clock advances by modelled compute time (from the cost model or
from measured kernel time) and is synchronised with other ranks' clocks at
every collective.  Wall-clock time on the host machine never enters the
simulation, so results are machine-independent and deterministic.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Optional


class Stopwatch:
    """Thread-CPU seconds of a ``with`` block — the one measured window.

    The clock-fidelity rule, stated here and nowhere else: rank code that
    runs *concurrently* with its peers is timed in thread CPU time
    (``time.thread_time``), because the simulated ranks are threads of
    one process and wall time would charge each rank its peers' GIL
    turns; wall clock (``perf_counter``) is used only where the peers
    are parked — a master-only step ahead of a barrier or broadcast.

    ``seconds`` is read after the block, whether or not it raised.
    :meth:`repro.mpi.comm.SimComm.compute` charges a window to the rank's
    clock; a caller that hands the cost on instead (``comm.shared`` to
    every rank, a stage to ``team.batch``) reads the stopwatch bare.
    """

    __slots__ = ("seconds", "_t0")

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.thread_time() - self._t0


class VirtualClock:
    """Monotonic virtual time for one simulated rank."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start negative: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(
        self,
        dt: float,
        kind: str = "compute",
        label: str = "",
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> float:
        """Advance by ``dt`` virtual seconds; returns the new time.

        ``kind`` annotates the segment for tracing subclasses ("compute"
        or "comm"); ``label``/``attrs`` name it (collective op, byte
        counts).  The base clock ignores all three.
        """
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt: {dt}")
        self._now += dt
        return self._now

    def sync_to(self, t: float, label: str = "") -> None:
        """Move forward to absolute time ``t`` (no-op if already past)."""
        if t > self._now:
            self._now = t


class TracingClock(VirtualClock):
    """A virtual clock that records its segments into a RankTrace."""

    __slots__ = ("trace",)

    def __init__(self, trace, start: float = 0.0) -> None:
        super().__init__(start)
        self.trace = trace

    def advance(
        self,
        dt: float,
        kind: str = "compute",
        label: str = "",
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> float:
        t0 = self.now
        out = super().advance(dt, kind)
        self.trace.add(kind, t0, out, label, attrs)
        return out

    def sync_to(self, t: float, label: str = "") -> None:
        t0 = self.now
        super().sync_to(t)
        if self.now > t0:
            self.trace.add("wait", t0, self.now, label)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f})"
