"""Stage-resolved time + RAM timelines.

Figures 2 and 11 of the paper are Collectl traces: RAM usage on the Y axis
against runtime on the X axis, annotated by pipeline stage.  A
:class:`Timeline` is our structured form of that trace; it can be built
two ways:

* *measured* — the live pipeline wraps each stage with
  :meth:`ResourceMonitor.stage`, recording wall time and an estimated
  resident size;
* *modelled* — the paper-scale experiments append :class:`StageSpan`
  entries directly from the cost model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.obs.span import Span


class StageSpan(Span):
    """One pipeline stage's interval on the timeline.

    Now a view over the unified :class:`~repro.obs.span.Span` — kind
    ``"stage"`` on the ``driver`` track, with RAM carried in ``attrs`` —
    so driver timelines feed the Chrome exporter unconverted.  The old
    constructor shape and field names (``stage``, ``start_s``,
    ``duration_s``, ``ram_gb``) are preserved.
    """

    def __init__(self, stage: str, start_s: float, duration_s: float, ram_gb: float):
        if duration_s < 0:
            raise ValueError(f"negative duration for stage {stage!r}")
        if ram_gb < 0:
            raise ValueError(f"negative RAM for stage {stage!r}")
        super().__init__(
            kind="stage",
            start=float(start_s),
            stop=float(start_s) + float(duration_s),
            label=stage,
            track="driver",
            attrs={"ram_gb": float(ram_gb)},
        )

    @property
    def stage(self) -> str:
        return self.label

    @property
    def start_s(self) -> float:
        return self.start

    @property
    def duration_s(self) -> float:
        return self.stop - self.start

    @property
    def ram_gb(self) -> float:
        return float(self.attr("ram_gb", 0.0))

    @property
    def end_s(self) -> float:
        return self.stop


@dataclass
class Timeline:
    """An ordered sequence of stage spans."""

    spans: List[StageSpan] = field(default_factory=list)

    def append(self, stage: str, duration_s: float, ram_gb: float) -> StageSpan:
        """Append a span starting where the previous one ended."""
        span = StageSpan(stage, self.total_s, duration_s, ram_gb)
        self.spans.append(span)
        return span

    @property
    def total_s(self) -> float:
        return self.spans[-1].end_s if self.spans else 0.0

    @property
    def peak_ram_gb(self) -> float:
        return max((s.ram_gb for s in self.spans), default=0.0)

    def duration_of(self, stage: str) -> float:
        return sum(s.duration_s for s in self.spans if s.stage == stage)

    def stages(self) -> List[str]:
        seen: List[str] = []
        for s in self.spans:
            if s.stage not in seen:
                seen.append(s.stage)
        return seen

    def sample(self, n_points: int = 100) -> List[Tuple[float, float]]:
        """(time, ram) samples across the run — the Collectl trace shape."""
        if not self.spans or n_points <= 0:
            return []
        total = self.total_s
        out: List[Tuple[float, float]] = []
        step = total / n_points
        idx = 0
        for i in range(n_points + 1):
            t = min(i * step, total)
            while idx + 1 < len(self.spans) and t >= self.spans[idx].end_s:
                idx += 1
            out.append((t, self.spans[idx].ram_gb))
        return out


def timeline_to_json(timeline: Timeline) -> str:
    """Serialise a timeline (JSON list of span objects)."""
    import json

    return json.dumps(
        [
            {
                "stage": s.stage,
                "start_s": s.start_s,
                "duration_s": s.duration_s,
                "ram_gb": s.ram_gb,
            }
            for s in timeline.spans
        ],
        indent=2,
    )


def timeline_from_json(text: str) -> Timeline:
    """Inverse of :func:`timeline_to_json`."""
    import json

    tl = Timeline()
    for obj in json.loads(text):
        tl.spans.append(
            StageSpan(obj["stage"], obj["start_s"], obj["duration_s"], obj["ram_gb"])
        )
    return tl


def timeline_to_csv(timeline: Timeline) -> str:
    """Collectl-like CSV: stage,start_s,duration_s,ram_gb."""
    lines = ["stage,start_s,duration_s,ram_gb"]
    for s in timeline.spans:
        lines.append(f"{s.stage},{s.start_s:.6f},{s.duration_s:.6f},{s.ram_gb:.3f}")
    return "\n".join(lines) + "\n"


class ResourceMonitor:
    """Measures live pipeline stages into a :class:`Timeline`.

    RAM is estimated from caller-provided byte counts (resident-size
    introspection of Python objects is unreliable; the pipeline knows the
    size of its own tables).
    """

    def __init__(self) -> None:
        self.timeline = Timeline()

    def stage(self, name: str, ram_bytes: int = 0) -> "_StageCtx":
        return _StageCtx(self, name, ram_bytes)

    def record(self, name: str, duration_s: float, ram_bytes: int = 0) -> None:
        self.timeline.append(name, duration_s, ram_bytes / 1e9)


class _StageCtx:
    """One monitored stage interval.

    Clock choice (audited against the PR 1 clock-fidelity rule —
    ``thread_time`` in concurrent regions, wall clock for serial
    sections): ``perf_counter`` is correct here *by design*, not an
    oversight.  The monitor runs on the pipeline's driver thread and
    brackets whole stages whose work executes in *other* threads — the
    simulated MPI ranks and OpenMP teams.  ``thread_time`` on the driver
    thread would read ~0 for every mpirun stage (the driver mostly
    waits), while the Collectl traces this mimics (Figs 2/11) are
    host-side elapsed-time recordings.  The thread_time rule applies
    *inside* the rank/thread bodies, which charge their own virtual
    clocks; the monitor's job is the orthogonal host-wall axis.
    """

    def __init__(self, monitor: ResourceMonitor, name: str, ram_bytes: int) -> None:
        self._monitor = monitor
        self._name = name
        self.ram_bytes = ram_bytes  # callers may update before __exit__
        self._start = 0.0

    def __enter__(self) -> "_StageCtx":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._start
        self._monitor.record(self._name, duration, self.ram_bytes)
