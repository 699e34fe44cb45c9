"""Figure 8: GraphFromFasta time breakdown (loops vs non-parallel), normalised."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.workload import ChrysalisWorkload, build_workload
from repro.experiments import paper
from repro.parallel.scaling import ScalingPoint, at, simulate_gff
from repro.util.fmt import format_table


@dataclass
class Fig08Result:
    points: List[ScalingPoint]

    def share(self, nodes: int) -> float:
        return at(self.points, nodes).loops_share

    def render(self) -> str:
        rows = []
        for p in self.points:
            loops_pct = 100.0 * p.loops_share
            rows.append(
                [
                    p.nodes,
                    f"{100.0 * p.loop1_max / p.total_s:.1f}",
                    f"{100.0 * p.loop2_max / p.total_s:.1f}",
                    f"{100.0 - loops_pct:.1f}",
                ]
            )
        table = format_table(["nodes", "loop1 %", "loop2 %", "non-parallel %"], rows)
        cmp = format_table(
            ["quantity", "modelled", "paper"],
            [
                ["loops share @16", f"{100 * self.share(16):.1f}%", f"{100 * paper.GFF_LOOPS_SHARE_16N:.1f}%"],
                ["loops share @192", f"{100 * self.share(192):.1f}%", f"{100 * paper.GFF_LOOPS_SHARE_192N:.1f}%"],
                [
                    "non-parallel share @128",
                    f"{100 * (1 - self.share(128)):.1f}%",
                    f"{100 * paper.GFF_NONPAR_SHARE_128N:.1f}%",
                ],
            ],
        )
        return f"Figure 8 — GraphFromFasta breakdown (normalised to 100%)\n{table}\n\n{cmp}"


def run(workload: Optional[ChrysalisWorkload] = None, seed: int = 0) -> Fig08Result:
    workload = workload if workload is not None else build_workload(seed=seed)
    return Fig08Result(points=simulate_gff(paper.GFF_SWEEP_NODES, workload))
