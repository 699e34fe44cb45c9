"""Per-rank execution traces and an ASCII Gantt renderer.

When tracing is enabled (``mpirun(..., trace=True)``), every simulated
rank records its virtual-time segments — compute (clock advances) and
communication (collective costs + waiting for the slowest peer) — so a
run can be inspected like an MPI profiler timeline.  The Figure 7/8
narrative ("load imbalance", "non-parallel regions") becomes directly
visible in the Gantt output.

Segments are the unified :class:`repro.obs.span.Span` type, so rank
traces feed the Chrome exporter and critical-path analyser without
conversion.  ``render_gantt`` and ``trace_summary`` are views over the
same spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence

from repro.obs.span import Span


@dataclass
class RankTrace:
    """All segments of one rank, kept in start-time order.

    ``add`` tolerates out-of-order arrival (a sub-communicator or a
    caller replaying buffered costs may append a segment that starts
    before the previous one ended) by inserting at the sorted position;
    ``end`` is the max stop over all segments, so neither the Gantt
    renderer nor the makespan attribution silently assumes sortedness.
    """

    rank: int
    segments: List[Span] = field(default_factory=list)

    def add(
        self,
        kind: str,
        start: float,
        stop: float,
        label: str = "",
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record one interval (zero-duration intervals are dropped)."""
        if stop <= start:
            return
        seg = Span(kind, start, stop, label, track=f"rank {self.rank}", attrs=attrs)
        segs = self.segments
        if segs and start < segs[-1].start:
            # Rare out-of-order arrival: binary-insert by start time.
            lo, hi = 0, len(segs)
            while lo < hi:
                mid = (lo + hi) // 2
                if segs[mid].start <= start:
                    lo = mid + 1
                else:
                    hi = mid
            segs.insert(lo, seg)
        else:
            segs.append(seg)

    def total(self, kind: str) -> float:
        """Summed duration of one segment kind."""
        return sum(s.duration for s in self.segments if s.kind == kind)

    @property
    def end(self) -> float:
        """Latest stop time (order-independent)."""
        return max((s.stop for s in self.segments), default=0.0)


_GLYPH = {"compute": "#", "wait": ".", "comm": "~"}


def render_gantt(traces: Sequence[RankTrace], width: int = 72) -> str:
    """ASCII Gantt chart: one row per rank, time left to right.

    ``#`` compute, ``.`` waiting at a collective, ``~`` communication.
    """
    if not traces:
        return "(no traces)"
    horizon = max(t.end for t in traces)
    if horizon <= 0:
        return "(empty traces)"
    lines = [f"virtual time 0 .. {horizon:.3g}s   (# compute, . wait, ~ comm)"]
    for trace in traces:
        row = [" "] * width
        for seg in trace.segments:
            a = int(seg.start / horizon * (width - 1))
            b = max(a + 1, int(seg.stop / horizon * (width - 1)) + 1)
            for i in range(a, min(b, width)):
                row[i] = _GLYPH.get(seg.kind, "?")
        lines.append(f"rank {trace.rank:3d} |{''.join(row)}|")
    return "\n".join(lines)


def trace_summary(traces: Sequence[RankTrace]) -> str:
    """Per-rank compute/wait/comm totals — the imbalance at a glance."""
    lines = ["rank  compute     wait        comm"]
    for t in traces:
        lines.append(
            f"{t.rank:4d}  {t.total('compute'):<10.4g}  "
            f"{t.total('wait'):<10.4g}  {t.total('comm'):<10.4g}"
        )
    return "\n".join(lines)
