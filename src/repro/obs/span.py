"""The unified span type every instrumentation layer emits.

A :class:`Span` is the one interval record of the repository: the
per-rank clock segments a traced rank's clock records, the labelled regions
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
paper's Figures 2 and 11: :func:`append_stage` lays them back to back.
The modelled timelines of :mod:`repro.parallel.scaling` call it directly,
each span carrying its modelled resident size as ``attrs["ram_gb"]``;
the two pipeline drivers time live stages with :func:`host_stage`, whose
spans carry host wall time only (nothing measures a live stage's RAM).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
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

    def shifted(self, dt: float) -> "Span":
        """Copy of this span translated by ``dt`` seconds."""
        return replace(self, start=self.start + dt, stop=self.stop + dt)


def append_stage(
    spans: List[Span], label: str, duration_s: float, ram_gb: Optional[float] = None
) -> Span:
    """Append a driver-track ``stage`` span starting where the last one
    stopped, annotated with ``ram_gb`` when given (the modelled timelines)."""
    if ram_gb is not None and ram_gb < 0:
        raise ValueError(f"negative RAM for stage {label!r}")
    start = spans[-1].stop if spans else 0.0
    attrs = None if ram_gb is None else {"ram_gb": ram_gb}
    span = Span("stage", start, start + duration_s, label, "driver", attrs)
    spans.append(span)
    return span


@contextmanager
def host_stage(spans: Optional[List[Span]], label: str) -> Iterator[None]:
    """Time the body on the host wall clock as one :func:`append_stage` span
    (none when ``spans`` is None: a serial stage body called on its own).

    Clock choice: ``perf_counter``, by design.  The span brackets work
    that runs in *other* threads (the simulated MPI ranks and OpenMP
    teams); ``thread_time`` on the driver thread would read ~0 across an
    ``mpirun`` stage, while the Collectl traces this mimics are host-side
    elapsed time.  ``thread_time`` belongs inside the rank bodies, which
    charge their own virtual clocks.
    """
    t0 = time.perf_counter()
    yield
    if spans is not None:
        append_stage(spans, label, time.perf_counter() - t0)


def stage_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed duration of each label, in first-seen order."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.label] = out.get(s.label, 0.0) + s.duration
    return out


def peak_ram_gb(spans: Iterable[Span]) -> float:
    """The largest ``ram_gb`` any span carries (0 for none): a modelled
    timeline's peak."""
    return max((s.attr("ram_gb", 0.0) for s in spans), default=0.0)


def render_stage_table(spans: List[Span]) -> str:
    """Per-stage duration table of back-to-back stage spans."""
    rows = [[label, human_time(seconds)] for label, seconds in stage_seconds(spans).items()]
    rows.append(["TOTAL", human_time(spans[-1].stop if spans else 0.0)])
    return format_table(["stage", "time"], rows)


def render_timeline(spans: List[Span], width: int = 72) -> str:
    """ASCII Collectl-style trace of a modelled timeline: one bar per stage
    span, length ~ duration, with its ``ram_gb``."""
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
