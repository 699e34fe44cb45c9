"""Figure 10: parallel Bowtie with PyFasta target splitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments import paper
from repro.parallel.scaling import ScalingPoint, at, simulate_bowtie
from repro.util.fmt import format_table


@dataclass
class Fig10Result:
    points: List[ScalingPoint]

    @property
    def overall_speedup_128(self) -> float:
        return at(self.points, 1).total_s / at(self.points, 128).total_s

    @property
    def split_exceeds_bowtie_at(self) -> int:
        """Smallest node count where the PyFasta split outweighs Bowtie."""
        for p in self.points:
            if p.nodes > 1 and p.split_max > p.align_max:
                return p.nodes
        return -1

    def render(self) -> str:
        rows = [
            [p.nodes, f"{p.split_max:.0f}", f"{p.align_max:.0f}", f"{p.merge_max:.0f}", f"{p.total_s:.0f}"]
            for p in self.points
        ]
        table = format_table(
            ["nodes", "PyFasta split (s)", "Bowtie (s)", "SAM merge (s)", "total"], rows
        )
        cmp = format_table(
            ["quantity", "modelled", "paper"],
            [
                ["serial Bowtie (s)", f"{at(self.points, 1).total_s:.0f}", paper.BOWTIE_SERIAL_S],
                ["overall speedup @128", f"{self.overall_speedup_128:.2f}", paper.BOWTIE_SPEEDUP_128N],
                [
                    "split > bowtie from",
                    f"{self.split_exceeds_bowtie_at} nodes",
                    "split took more runtime than Bowtie",
                ],
            ],
        )
        return f"Figure 10 — parallel Bowtie (PyFasta split)\n{table}\n\n{cmp}"


def run(n_reads: int = paper.SUGARBEET_READS) -> Fig10Result:
    return Fig10Result(points=simulate_bowtie(paper.BOWTIE_SWEEP_NODES, n_reads))
