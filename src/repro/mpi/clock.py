"""Per-rank virtual clocks.

A rank's clock advances by modelled compute time (from the cost model or
from measured kernel time) and is synchronised with other ranks' clocks at
every collective.  Wall-clock time on the host machine never enters the
simulation, so results are machine-independent and deterministic.
"""

from __future__ import annotations

import time
from typing import Any, List, Mapping, Optional

from repro.obs.span import Span


class Stopwatch:
    """Thread-CPU seconds of a ``with`` block — the one measured window.

    The clock-fidelity rule, stated here and nowhere else: rank code is
    timed in thread CPU time (``time.thread_time``), everywhere, because
    the simulated ranks are threads of one process and wall time would
    charge each rank its peers' GIL turns.

    ``seconds`` is read after the block, whether or not it raised.
    :meth:`repro.mpi.comm.SimComm.compute` charges a window to the rank's
    clock (its ``map`` times each item of a team's loop the same way);
    ``comm.shared`` reads the stopwatch bare and hands the cost to every
    rank.
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
    """Monotonic virtual time for one simulated rank — the runtime's one clock.

    Each rank's communicator carries one.  Two optional holdings, which
    ``mpirun`` hands it, make the same clock the rank's tracer and its
    fault injector:

    ``spans`` / ``track``
        The rank's span list (``comm.spans`` of a traced run).  Every
        advance appends one span of the advance's kind (``compute`` or
        ``comm``) and every forward sync one ``wait`` span, on ``track``;
        zero-length segments are dropped.  Each move of ``now`` is exactly
        one such span, so a rank's clock spans sum to its end time — the
        identity :mod:`repro.obs.critical` attributes the makespan by.
    ``faults``
        The rank's :class:`~repro.mpi.faults.RankFaultInjector`.  Compute
        advances stretch by its straggler factor; a move that would cross
        its crash time stops exactly there (recording that partial
        segment, so the failed attempt's attribution stays exact) and
        raises :class:`~repro.errors.RankCrash`.
    """

    __slots__ = ("_now", "spans", "track", "faults")

    def __init__(
        self,
        start: float = 0.0,
        spans: Optional[List[Span]] = None,
        track: str = "",
        faults: Optional[Any] = None,
    ) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start negative: {start}")
        self._now = float(start)
        self.spans = spans
        self.track = track
        self.faults = faults

    @property
    def now(self) -> float:
        return self._now

    def _move(
        self, stop: float, kind: str, label: str, attrs: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Set ``now`` to ``stop`` (never backwards), recording the segment."""
        if stop > self._now:
            if self.spans is not None:
                self.spans.append(Span(kind, self._now, stop, label, self.track, attrs))
            self._now = stop

    def _crash_time(self) -> Optional[float]:
        inj = self.faults
        return None if inj is None or inj.crashed else inj.crash_time

    def advance(
        self,
        dt: float,
        kind: str = "compute",
        label: str = "",
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> float:
        """Advance by ``dt`` virtual seconds; returns the new time.

        ``kind`` is the segment's span kind ("compute" or "comm");
        ``label``/``attrs`` name it (collective op, byte counts).
        """
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt: {dt}")
        if self.faults is not None:
            if kind == "compute":
                dt *= self.faults.slowdown
            ct = self._crash_time()
            if ct is not None and self._now + dt >= ct:
                self._move(ct, kind, label, attrs)
                self.faults.trigger(f"at virtual time {ct:g}s (during {label or kind})")
        self._move(self._now + dt, kind, label, attrs)
        return self._now

    def sync_to(self, t: float, label: str = "") -> None:
        """Move forward to absolute time ``t`` (no-op if already past)."""
        if t <= self._now:
            return
        ct = self._crash_time()
        if ct is not None and t >= ct:
            self._move(ct, "wait", label)
            self.faults.trigger(f"at virtual time {ct:g}s (during {label or 'sync'})")
        self._move(t, "wait", label)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f})"
