"""Critical-path analysis and views over per-rank virtual timelines.

The paper's whole argument is a timing argument: Figure 7 measures load
imbalance as max/min rank time, Figure 8 shows the redundant serial
region's share growing with node count.  This module computes both
directly from a traced run's spans: each ``rank r`` track of
``StageResult.spans``, for ``r`` over the run's ``len(elapsed)`` ranks.

Because every advancement of a rank's virtual clock is exactly one of
the clock kinds (compute, wait at a collective, communication), each
rank's three totals sum to its end time — and the slowest ("critical")
rank's totals sum to the job makespan.  That identity is a tested
invariant and makes the attribution exact rather than sampled.

:func:`render_gantt` is one more view over the same spans: an ASCII
timeline per rank (the per-rank totals are the report's rank table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ObsError
from repro.obs.result import StageResult
from repro.obs.span import CLOCK_KINDS, Span
from repro.util.fmt import format_table


@dataclass(frozen=True)
class RankBreakdown:
    """One rank's makespan attribution."""

    rank: int
    compute: float
    wait: float
    comm: float

    @property
    def total(self) -> float:
        return self.compute + self.wait + self.comm


@dataclass
class CriticalPathReport:
    """Where the virtual makespan of one traced run went."""

    stage: str
    nprocs: int
    makespan: float
    ranks: List[RankBreakdown]
    critical_rank: int
    serial_time: float  # serial-region phase time on the critical rank
    top_spans: List[Span]

    @property
    def critical(self) -> RankBreakdown:
        """The slowest rank's breakdown (it defines the makespan)."""
        return next(r for r in self.ranks if r.rank == self.critical_rank)

    @property
    def serial_fraction(self) -> float:
        """Figure 8's measure: redundant-serial share of the makespan."""
        return self.serial_time / self.makespan if self.makespan > 0 else 0.0

    @property
    def imbalance(self) -> float:
        lo = min((r.total for r in self.ranks), default=0.0)
        return self.makespan / lo if lo > 0 else float("inf")

    def render(self) -> str:
        """Printable breakdown: per-rank table + critical-path summary."""
        rows = []
        for r in self.ranks:
            marker = " <- critical" if r.rank == self.critical_rank else ""
            rows.append(
                [
                    f"{r.rank}{marker}",
                    f"{r.compute:.4g}",
                    f"{r.wait:.4g}",
                    f"{r.comm:.4g}",
                    f"{r.total:.4g}",
                ]
            )
        parts = [
            f"critical path of {self.stage!r} ({self.nprocs} ranks, "
            f"makespan {self.makespan:.4g}s virtual)",
            format_table(["rank", "compute", "wait", "comm", "total"], rows),
            (
                f"critical rank {self.critical_rank}: "
                f"compute {self.critical.compute:.4g}s + wait {self.critical.wait:.4g}s "
                f"+ comm {self.critical.comm:.4g}s = {self.critical.total:.4g}s"
            ),
            f"imbalance (max/min rank time): {self.imbalance:.2f}x",
            (
                f"serial regions on critical rank: {self.serial_time:.4g}s "
                f"({100 * self.serial_fraction:.1f}% of makespan)  [Figure 8]"
            ),
        ]
        if self.top_spans:
            parts.append("longest spans:")
            for s in self.top_spans:
                parts.append(
                    f"  {s.duration:10.4g}s  {s.track or '-':>8}  {s.kind:7}  {s.name}"
                )
        return "\n".join(parts)


def rank_clock_spans(result: StageResult) -> List[List[Span]]:
    """Each rank's clock spans (compute / wait / comm), in recorded order.

    Requires the run to have been launched with ``trace=True`` — the
    clock segments are the ground truth being attributed.  A recovered
    run is refused too: its spans join attempts on different rank counts.
    """
    if "faults.rank_losses" in result.metrics:
        raise ObsError(
            f"stage {result.stage!r} recovered from a rank loss; its spans join "
            "attempts on different rank counts and cannot be attributed per rank"
        )
    tracks: Dict[str, List[Span]] = {f"rank {r}": [] for r in range(len(result.elapsed))}
    for span in result.spans:
        if span.kind in CLOCK_KINDS:
            tracks[span.track].append(span)
    if not any(tracks.values()):
        raise ObsError(
            f"stage {result.stage!r} was not traced; rerun with mpirun(..., trace=True)"
        )
    return list(tracks.values())


def _breakdown(rank: int, spans: Sequence[Span]) -> RankBreakdown:
    totals = dict.fromkeys(CLOCK_KINDS, 0.0)
    for span in spans:
        totals[span.kind] += span.duration
    return RankBreakdown(rank=rank, **totals)


def critical_path(result: StageResult, top_k: int = 5) -> CriticalPathReport:
    """Attribute a traced ``mpirun`` result's makespan (see
    :func:`rank_clock_spans` for what it accepts)."""
    ranks = [_breakdown(r, spans) for r, spans in enumerate(rank_clock_spans(result))]
    critical_rank = max(ranks, key=lambda r: (r.total, -r.rank)).rank
    serial_time = sum(
        s.duration
        for s in result.spans
        if s.kind == "phase"
        and s.track == f"rank {critical_rank}"
        and bool(s.attr("serial"))
    )
    labelled = [s for s in result.spans if s.kind == "phase"] + [
        s for s in result.spans if s.kind in CLOCK_KINDS and s.label
    ]
    top = sorted(labelled, key=lambda s: -s.duration)[:top_k]
    return CriticalPathReport(
        stage=result.stage,
        nprocs=len(ranks),
        makespan=result.makespan,
        ranks=ranks,
        critical_rank=critical_rank,
        serial_time=serial_time,
        top_spans=top,
    )


def verify_attribution(result: StageResult, tol: float = 1e-9) -> Sequence[float]:
    """Per-rank |compute+wait+comm - elapsed| residuals (tested ≤ ``tol``).

    Exposed as a function so tests and the CLI can assert the exact-
    attribution invariant on any traced run.
    """
    report = critical_path(result)
    residuals = []
    for rank_breakdown, elapsed in zip(report.ranks, result.elapsed):
        residuals.append(abs(rank_breakdown.total - elapsed))
    if any(r > tol for r in residuals):
        raise ObsError(
            f"clock attribution broken for {result.stage!r}: residuals {residuals}"
        )
    return residuals


_GLYPH = {"compute": "#", "wait": ".", "comm": "~"}


def render_gantt(result: StageResult, width: int = 72) -> str:
    """ASCII Gantt chart of a traced run: one row per rank, time left to right.

    ``#`` compute, ``.`` waiting at a collective, ``~`` communication.
    """
    ranks = rank_clock_spans(result)
    horizon = max(s.stop for spans in ranks for s in spans)
    lines = [f"virtual time 0 .. {horizon:.3g}s   (# compute, . wait, ~ comm)"]
    for rank, spans in enumerate(ranks):
        row = [" "] * width
        for seg in spans:
            a = int(seg.start / horizon * (width - 1))
            b = max(a + 1, int(seg.stop / horizon * (width - 1)) + 1)
            for i in range(a, min(b, width)):
                row[i] = _GLYPH[seg.kind]
        lines.append(f"rank {rank:3d} |{''.join(row)}|")
    return "\n".join(lines)
