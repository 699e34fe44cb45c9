"""Figure 2: original Trinity's RAM/runtime timeline (1 node x 16 threads).

Two renderings are available: the calibrated paper-scale timeline (what
Figure 2 plots for the 130 M-read sugarbeet input) and a live measured
timeline from actually running the miniature pipeline, which checks that
the *ordering* of stage costs (Chrysalis's GraphFromFasta dominating)
also emerges from the real implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments import paper
from repro.obs.span import Span, render_stage_table, render_timeline, stage_seconds
from repro.parallel.scaling import simulate_serial_timeline
from repro.util.fmt import format_table


@dataclass
class Fig02Result:
    timeline: List[Span]
    measured_mini: Optional[List[Span]] = None

    @property
    def total_h(self) -> float:
        return self.timeline[-1].stop / 3600.0

    @property
    def chrysalis_h(self) -> float:
        stages = stage_seconds(self.timeline).items()
        return sum(s for label, s in stages if label.startswith("chrysalis")) / 3600.0

    def render(self) -> str:
        parts = [
            "Figure 2 — original Trinity timeline (sugarbeet, 1 node x 16 threads)",
            render_timeline(self.timeline),
            "",
            format_table(
                ["quantity", "modelled", "paper"],
                [
                    ["total pipeline (h)", f"{self.total_h:.1f}", f"~{paper.TRINITY_SERIAL_TOTAL_H:.0f}"],
                    ["Chrysalis (h)", f"{self.chrysalis_h:.1f}", f">{paper.CHRYSALIS_SERIAL_H:.0f}"],
                ],
            ),
        ]
        if self.measured_mini is not None:
            parts += [
                "",
                "Live miniature run (shape check — Chrysalis should dominate):",
                render_stage_table(self.measured_mini),
            ]
        return "\n".join(parts)


def run(include_mini: bool = False, seed: int = 0) -> Fig02Result:
    timeline = simulate_serial_timeline()
    measured = None
    if include_mini:
        from repro.simdata import get_recipe
        from repro.simdata.reads import flatten_reads
        from repro.trinity import TrinityConfig, TrinityPipeline

        _, pairs = get_recipe("sugarbeet-mini").materialize(seed=seed)
        result = TrinityPipeline(TrinityConfig(seed=seed)).run(flatten_reads(pairs))
        measured = result.spans
    return Fig02Result(timeline=timeline, measured_mini=measured)
