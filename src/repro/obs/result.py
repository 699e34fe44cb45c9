"""``StageResult`` — the one result shape every stage returns.

A :class:`StageResult` keeps apart what the exporter, the critical-path
analyser and the validation harness each read:

``outputs``
    what the stage *computed* (records, welds, assignments, a
    ``TrinityResult``, or — for an ``mpirun`` — the per-rank return list);
``makespan`` / ``elapsed``
    when it happened on the virtual clocks;
``spans``
    the unified :class:`~repro.obs.span.Span` stream — for an ``mpirun``,
    every rank's phase, fault and (traced) clock spans on its ``rank r``
    track; for the two pipeline drivers, their back-to-back ``stage``
    spans;
``comm`` / ``metrics``
    communication accounting and scalar counters/gauges; a fact a span
    already records (a duration, a span's attrs) is read off the span,
    not copied here.

Every distributed stage body, ``stage(comm, inputs, config=None)``, sets
``outputs`` to a typed per-stage dataclass (``GraphFromFastaResult``,
``RttOutputs``, ``BowtieOutputs``, ``ChrysalisBackendOutputs``, …), so
the preferred reads are explicit: ``run.outputs[0].welds`` on an ``mpirun``
result, ``result.outputs.welds`` on a per-rank one.  Attribute
delegation to ``outputs`` (``result.welds``) remains for the untyped
callers; a metric is read as ``result.metrics[name]`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.span import Span


@dataclass
class StageResult:
    """Outputs + timing + spans + comm stats + metrics of one stage."""

    stage: str
    outputs: Any = None
    makespan: float = 0.0
    spans: List[Span] = field(default_factory=list)
    comm: List[Any] = field(default_factory=list)  # per-rank CommStats
    metrics: Dict[str, float] = field(default_factory=dict)
    elapsed: List[float] = field(default_factory=list)  # per-rank end times
    children: List["StageResult"] = field(default_factory=list)
    rank: Optional[int] = None  # set on per-rank results from SPMD bodies

    # -- timing views ------------------------------------------------------
    @property
    def min_rank_time(self) -> float:
        """Fastest rank's virtual end time (0 for non-MPI stages)."""
        return min(self.elapsed) if self.elapsed else 0.0

    @property
    def imbalance(self) -> float:
        """max/min rank time — the paper's load-imbalance measure."""
        lo = self.min_rank_time
        return self.makespan / lo if lo > 0 else float("inf")

    def all_spans(self) -> List[Span]:
        """This stage's spans plus every child stage's, recursively."""
        out = list(self.spans)
        for child in self.children:
            out.extend(child.all_spans())
        return out

    # -- exporters (lazy imports: obs.chrome depends on this module) -------
    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON object for this result."""
        from repro.obs.chrome import chrome_trace

        return chrome_trace(self)

    def write_chrome_trace(self, path) -> Any:
        """Write the Chrome trace-event JSON; returns the path."""
        from repro.obs.chrome import write_chrome_trace

        return write_chrome_trace(path, self)

    def __getattr__(self, name: str) -> Any:
        # Delegation keeps pre-StageResult field access working: stage
        # outputs (r.welds, r.transcripts) were fields of the per-stage
        # result classes.
        if name.startswith("_"):
            raise AttributeError(name)
        outputs = object.__getattribute__(self, "outputs")
        if outputs is not None and hasattr(outputs, name):
            return getattr(outputs, name)
        raise AttributeError(
            f"{type(self).__name__} for stage {self.stage!r} has no attribute {name!r} "
            "(not a field, not on .outputs)"
        )
