"""Figure 7: hybrid GraphFromFasta scaling, 16-192 nodes x 16 threads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.workload import ChrysalisWorkload, build_workload
from repro.experiments import paper
from repro.parallel.scaling import ScalingPoint, at, gff_serial_baseline_s, simulate_gff
from repro.util.fmt import format_table


@dataclass
class Fig07Result:
    """Simulated Figure 7 series plus derived speedups."""

    points: List[ScalingPoint]
    serial_baseline_s: float

    @property
    def base(self) -> ScalingPoint:
        return self.points[0]

    def loop1_speedup(self, nodes: int) -> float:
        return self.base.loop1_max / at(self.points, nodes).loop1_max

    def loop2_speedup(self, nodes: int) -> float:
        return self.base.loop2_max / at(self.points, nodes).loop2_max

    def total_speedup(self, nodes: int) -> float:
        return self.serial_baseline_s / at(self.points, nodes).total_s

    def render(self) -> str:
        rows = [
            [
                p.nodes,
                f"{p.loop1_max:.0f}",
                f"{p.loop1_min:.0f}",
                f"{p.loop2_max:.0f}",
                f"{p.loop2_min:.0f}",
                f"{p.total_s:.0f}",
            ]
            for p in self.points
        ]
        table = format_table(
            ["nodes", "loop1 max (s)", "loop1 min", "loop2 max", "loop2 min", "total"],
            rows,
        )
        p192 = at(self.points, 192)
        cmp_rows = [
            ["loop1 speedup @128 (vs 16)", f"{self.loop1_speedup(128):.2f}", paper.GFF_LOOP1_SPEEDUP_128],
            ["loop1 speedup @192", f"{self.loop1_speedup(192):.2f}", paper.GFF_LOOP1_SPEEDUP_192],
            ["loop2 speedup @128", f"{self.loop2_speedup(128):.2f}", paper.GFF_LOOP2_SPEEDUP_128],
            ["loop2 speedup @192", f"{self.loop2_speedup(192):.2f}", paper.GFF_LOOP2_SPEEDUP_192],
            ["loop1 max/min @192", f"{p192.loop1_imbalance:.2f}", paper.GFF_LOOP1_IMBALANCE_192],
            ["loop2 max/min @192", f"{p192.loop2_imbalance:.2f}", f">{paper.GFF_LOOP2_IMBALANCE_192}"],
            ["total speedup @16 (vs serial)", f"{self.total_speedup(16):.2f}", paper.GFF_SPEEDUP_16N],
            ["total speedup @192", f"{self.total_speedup(192):.2f}", paper.GFF_SPEEDUP_192N],
            ["serial baseline (s)", f"{self.serial_baseline_s:.0f}", paper.GFF_SERIAL_S],
        ]
        cmp = format_table(["quantity", "modelled", "paper"], cmp_rows)
        return f"Figure 7 — hybrid GraphFromFasta scaling\n{table}\n\n{cmp}"


def run(workload: Optional[ChrysalisWorkload] = None, seed: int = 0) -> Fig07Result:
    workload = workload if workload is not None else build_workload(seed=seed)
    points = simulate_gff(paper.GFF_SWEEP_NODES, workload)
    return Fig07Result(points=points, serial_baseline_s=gff_serial_baseline_s())
