"""Pipeline-wide span observability: one span type, every layer emits it.

The subsystem has five pieces, each consuming the one before:

* :mod:`repro.obs.span` — :class:`Span`, the one interval record (per-rank
  clock segments, labelled regions, driver stage intervals), and the
  back-to-back stage spans of the pipelines and Figures 2 / 11;
* :mod:`repro.obs.result` — :class:`StageResult`, the common return shape
  of the MPI stage bodies, ``mpirun`` and both pipeline drivers;
* :mod:`repro.obs.chrome` — Chrome trace-event / Perfetto export of any
  StageResult;
* :mod:`repro.obs.critical` — makespan attribution (compute/wait/comm per
  rank, Figure-8 serial fraction, top-k spans) and the Gantt chart, both
  views over a traced run's ``rank r`` spans;
* :mod:`repro.obs.metrics` — the one process-wide counter, the driver's
  checkpoint restores; every other fact a run produces is on its own
  StageResult.

``repro profile`` is the CLI entry point over all of it.
"""

from repro.obs.span import CLOCK_KINDS, Span
from repro.obs.result import StageResult
from repro.obs.chrome import chrome_trace, chrome_trace_events, write_chrome_trace
from repro.obs.critical import (
    CriticalPathReport,
    RankBreakdown,
    critical_path,
    render_gantt,
    verify_attribution,
)
from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry

__all__ = [
    "CLOCK_KINDS",
    "Span",
    "StageResult",
    "chrome_trace",
    "chrome_trace_events",
    "write_chrome_trace",
    "CriticalPathReport",
    "RankBreakdown",
    "critical_path",
    "render_gantt",
    "verify_attribution",
    "GLOBAL_METRICS",
    "MetricsRegistry",
]
