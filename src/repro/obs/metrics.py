"""The one process-wide counter: checkpoint restores across driver runs.

Every fact a run produces lives on that run's
:class:`~repro.obs.result.StageResult` — its ``metrics`` dict, or the
``fault`` / ``phase`` span that records the event.  :data:`GLOBAL_METRICS`
keeps only ``checkpoint.restores``, which
:class:`~repro.parallel.driver.ParallelTrinityDriver` also reports per
run, for readers that measure a restart as a delta across runs.  The
registry is thread-safe: simulated ranks run as concurrent host threads.
"""

from __future__ import annotations

import threading
from typing import Dict


class MetricsRegistry:
    """A named set of monotone counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}

    def inc(self, name: str, value: float = 1.0) -> float:
        """Add ``value`` to counter ``name``; returns the new total."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (got {value})")
        with self._lock:
            new = self._counters.get(name, 0.0) + value
            self._counters[name] = new
            return new

    def get(self, name: str, default: float = 0.0) -> float:
        """Current value of counter ``name``."""
        with self._lock:
            return self._counters.get(name, default)


#: Process-wide registry; the driver's checkpoint restores are its one counter.
GLOBAL_METRICS = MetricsRegistry()
