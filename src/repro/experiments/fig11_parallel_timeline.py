"""Figure 11: hybrid Trinity timeline at 16 nodes x 16 threads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cluster.workload import build_workload
from repro.obs.span import Span, render_timeline, stage_seconds
from repro.parallel.scaling import simulate_parallel_timeline, simulate_serial_timeline
from repro.util.fmt import format_table


@dataclass
class Fig11Result:
    parallel: List[Span]
    serial: List[Span]
    nodes: int

    def chrysalis_h(self, timeline: List[Span]) -> float:
        stages = stage_seconds(timeline).items()
        return sum(s for label, s in stages if label.startswith("chrysalis")) / 3600.0

    def render(self) -> str:
        return "\n".join(
            [
                f"Figure 11 — hybrid Trinity timeline ({self.nodes} nodes x 16 threads)",
                render_timeline(self.parallel),
                "",
                format_table(
                    ["quantity", "parallel", "serial (Fig 2)"],
                    [
                        [
                            "Chrysalis (h)",
                            f"{self.chrysalis_h(self.parallel):.1f}",
                            f"{self.chrysalis_h(self.serial):.1f}",
                        ],
                        [
                            "whole pipeline (h)",
                            f"{self.parallel[-1].stop / 3600:.1f}",
                            f"{self.serial[-1].stop / 3600:.1f}",
                        ],
                    ],
                ),
                "",
                "(paper: the figure 'shows the substantially lower time taken in"
                " Chrysalis workflow' at 16 nodes)",
            ]
        )


def run(nodes: int = 16, seed: int = 0) -> Fig11Result:
    workload = build_workload(seed=seed)
    return Fig11Result(
        parallel=simulate_parallel_timeline(nodes=nodes, workload=workload),
        serial=simulate_serial_timeline(),
        nodes=nodes,
    )
