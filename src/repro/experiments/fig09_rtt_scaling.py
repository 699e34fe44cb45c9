"""Figure 9: hybrid ReadsToTranscripts scaling, 4-32 nodes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.workload import ChrysalisWorkload, build_workload
from repro.experiments import paper
from repro.parallel.scaling import ScalingPoint, at, rtt_serial_baseline_s, simulate_rtt
from repro.util.fmt import format_table


@dataclass
class Fig09Result:
    points: List[ScalingPoint]
    serial_baseline_s: float

    @property
    def loop_speedup_4_to_32(self) -> float:
        return at(self.points, 4).loop_max / at(self.points, 32).loop_max

    @property
    def total_speedup_32(self) -> float:
        return self.serial_baseline_s / at(self.points, 32).total_s

    def render(self) -> str:
        rows = [
            [
                p.nodes,
                f"{p.loop_max:.0f}",
                f"{p.loop_min:.0f}",
                f"{p.setup_max:.0f}",
                f"{p.concat_max:.0f}",
                f"{p.total_s:.0f}",
            ]
            for p in self.points
        ]
        table = format_table(
            ["nodes", "MPI loop max (s)", "loop min", "kmer-assign", "concat", "total"], rows
        )
        p32 = at(self.points, 32)
        cmp = format_table(
            ["quantity", "modelled", "paper"],
            [
                ["loop @4 nodes (s)", f"{at(self.points, 4).loop_max:.0f}", paper.RTT_LOOP_4N_S],
                ["loop @32 nodes (s)", f"{p32.loop_max:.0f}", paper.RTT_LOOP_32N_S],
                ["loop min @32 (s)", f"{p32.loop_min:.0f}", paper.RTT_LOOP_32N_MIN_S],
                ["loop speedup 4->32", f"{self.loop_speedup_4_to_32:.2f}", paper.RTT_LOOP_SPEEDUP_4_TO_32],
                ["total speedup @32 (vs serial)", f"{self.total_speedup_32:.2f}", paper.RTT_TOTAL_SPEEDUP_32N],
                ["concat (s)", f"{p32.concat_max:.0f}", f"<{paper.RTT_CONCAT_MAX_S:.0f}"],
                ["serial baseline (s)", f"{self.serial_baseline_s:.0f}", paper.RTT_SERIAL_S],
            ],
        )
        return f"Figure 9 — hybrid ReadsToTranscripts scaling\n{table}\n\n{cmp}"


def run(workload: Optional[ChrysalisWorkload] = None, seed: int = 0) -> Fig09Result:
    workload = workload if workload is not None else build_workload(seed=seed)
    return Fig09Result(
        points=simulate_rtt(paper.RTT_SWEEP_NODES, workload),
        serial_baseline_s=rtt_serial_baseline_s(),
    )
