"""The unified span type every instrumentation layer emits.

A :class:`Span` is the one interval record of the repository: the
per-rank clock segments of :mod:`repro.mpi.trace`, the labelled regions
of ``SimComm.region`` and the pipeline drivers' stage intervals are all
spans, so the Chrome-trace exporter and the critical-path analyser
consume a single shape regardless of which layer produced the interval.

Vocabulary
----------
``kind``
    What the interval *is*: ``"compute"``, ``"wait"`` and ``"comm"`` are
    the per-rank virtual-clock kinds; ``"phase"`` marks a labelled
    algorithm region (e.g. ``gff:loop1``) that *contains* clock spans;
    ``"stage"`` marks a driver-level pipeline stage.
``track``
    Which timeline row the span belongs to: ``"rank 3"``, ``"driver"``.
``attrs``
    Free-form annotations — byte counts, item counts, cache hits, RAM.

Stage spans on the ``driver`` track are the Collectl-style traces of the
paper's Figures 2 and 11: :func:`append_stage` lays them back to back
(each carries its estimated resident size as ``attrs["ram_gb"]``), the
modelled timelines of :mod:`repro.parallel.scaling` call it directly and
the two pipeline drivers time live stages with :func:`host_stage`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

from repro.util.fmt import format_table, human_time

#: Clock kinds: every advancement of a rank's virtual clock is exactly one
#: of these, which is why their per-rank totals sum to the rank's end time.
CLOCK_KINDS = ("compute", "wait", "comm")


@dataclass(frozen=True)
class Span:
    """One interval on one track of a run's timeline."""

    kind: str
    start: float
    stop: float
    label: str = ""
    track: str = ""
    attrs: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError(f"segment ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.stop - self.start

    @property
    def name(self) -> str:
        """Display name: the label when set, else the kind."""
        return self.label or self.kind

    def attr(self, key: str, default: Any = None) -> Any:
        """Look up one annotation (None-safe)."""
        return default if self.attrs is None else self.attrs.get(key, default)

    def on_track(self, track: str) -> "Span":
        """Copy of this span reassigned to ``track``."""
        return replace(self, track=track)

    def shifted(self, dt: float) -> "Span":
        """Copy of this span translated by ``dt`` seconds."""
        return replace(self, start=self.start + dt, stop=self.stop + dt)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        out: Dict[str, Any] = {
            "kind": self.kind,
            "start": self.start,
            "stop": self.stop,
            "label": self.label,
            "track": self.track,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=obj["kind"],
            start=float(obj["start"]),
            stop=float(obj["stop"]),
            label=obj.get("label", ""),
            track=obj.get("track", ""),
            attrs=obj.get("attrs"),
        )


def append_stage(spans: List[Span], label: str, duration_s: float, ram_gb: float) -> Span:
    """Append a driver-track ``stage`` span starting where the last one stopped."""
    if ram_gb < 0:
        raise ValueError(f"negative RAM for stage {label!r}")
    start = spans[-1].stop if spans else 0.0
    span = Span("stage", start, start + duration_s, label, "driver", {"ram_gb": ram_gb})
    spans.append(span)
    return span


@contextmanager
def host_stage(spans: List[Span], label: str) -> Iterator[SimpleNamespace]:
    """Time the body on the host wall clock as one :func:`append_stage` span.

    The body may set ``ram_bytes`` on the yielded object: the stage's
    resident size, estimated from the sizes of its own tables (Python
    object introspection is unreliable).

    Clock choice: ``perf_counter``, by design.  The span brackets work
    that runs in *other* threads (the simulated MPI ranks and OpenMP
    teams); ``thread_time`` on the driver thread would read ~0 across an
    ``mpirun`` stage, while the Collectl traces this mimics are host-side
    elapsed time.  ``thread_time`` belongs inside the rank bodies, which
    charge their own virtual clocks.
    """
    stage = SimpleNamespace(ram_bytes=0)
    t0 = time.perf_counter()
    yield stage
    append_stage(spans, label, time.perf_counter() - t0, stage.ram_bytes / 1e9)


def stage_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed duration of each label, in first-seen order."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.label] = out.get(s.label, 0.0) + s.duration
    return out


def peak_ram_gb(spans: Iterable[Span]) -> float:
    """The largest ``ram_gb`` any span carries (0 for none)."""
    return max((s.attr("ram_gb", 0.0) for s in spans), default=0.0)


def render_stage_table(spans: List[Span]) -> str:
    """Per-stage duration / peak-RAM table of back-to-back stage spans."""
    rows: List[List[object]] = [
        [
            label,
            human_time(seconds),
            f"{peak_ram_gb(s for s in spans if s.label == label):.1f}",
        ]
        for label, seconds in stage_seconds(spans).items()
    ]
    total = spans[-1].stop if spans else 0.0
    rows.append(["TOTAL", human_time(total), f"{peak_ram_gb(spans):.1f}"])
    return format_table(["stage", "time", "peak RAM (GB)"], rows)


def render_timeline(spans: List[Span], width: int = 72) -> str:
    """ASCII Collectl-style trace: one bar per stage span, length ~ duration."""
    total = spans[-1].stop if spans else 0.0
    if total <= 0:
        return "(empty timeline)"
    name_w = max(len(s.label) for s in spans)
    lines = [
        f"{s.label.ljust(name_w)} |{'#' * max(1, round(width * s.duration / total))}| "
        f"{human_time(s.duration)} @ {s.attr('ram_gb', 0.0):.1f} GB"
        for s in spans
    ]
    lines.append(f"{'TOTAL'.ljust(name_w)}  {human_time(total)}, peak {peak_ram_gb(spans):.1f} GB")
    return "\n".join(lines)
