"""robustness: are the Figure 7/9 conclusions stable across workload seeds?

The scaling replays sample the sugarbeet-scale cost distributions from a
seed.  This experiment re-runs the key Figure 7 and Figure 9 quantities
across several seeds and reports mean +/- sd, demonstrating the
reproduction's conclusions are properties of the distributions, not of
one lucky draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.cluster.workload import build_workload
from repro.parallel.scaling import (
    gff_serial_baseline_s,
    rtt_serial_baseline_s,
    simulate_gff,
    simulate_rtt,
)
from repro.util.fmt import format_table


@dataclass
class RobustnessResult:
    seeds: List[int]
    metrics: Dict[str, List[float]]  # metric name -> value per seed
    paper: Dict[str, float]

    def mean(self, name: str) -> float:
        return float(np.mean(self.metrics[name]))

    def sd(self, name: str) -> float:
        return float(np.std(self.metrics[name]))

    def render(self) -> str:
        rows = [
            [name, f"{self.mean(name):.2f}", f"{self.sd(name):.2f}", self.paper[name]]
            for name in self.metrics
        ]
        return (
            f"Robustness — key scaling quantities across {len(self.seeds)} workload seeds\n"
            + format_table(["metric", "mean", "sd", "paper"], rows)
        )


def run_robustness(seeds: Sequence[int] = (0, 1, 2, 3, 4)) -> RobustnessResult:
    metrics: Dict[str, List[float]] = {
        "gff total speedup @16": [],
        "gff total speedup @192": [],
        "gff loop1 speedup 16->192": [],
        "gff loop2 imbalance @192": [],
        "rtt loop speedup 4->32": [],
        "rtt total speedup @32": [],
    }
    for seed in seeds:
        wl = build_workload(seed=seed)
        p16, p192 = simulate_gff((16, 192), wl)
        metrics["gff total speedup @16"].append(gff_serial_baseline_s() / p16.total_s)
        metrics["gff total speedup @192"].append(gff_serial_baseline_s() / p192.total_s)
        metrics["gff loop1 speedup 16->192"].append(p16.loop1_max / p192.loop1_max)
        metrics["gff loop2 imbalance @192"].append(p192.loop2_imbalance)
        r4, r32 = simulate_rtt((4, 32), wl)
        metrics["rtt loop speedup 4->32"].append(r4.loop_max / r32.loop_max)
        metrics["rtt total speedup @32"].append(rtt_serial_baseline_s() / r32.total_s)
    paper = {
        "gff total speedup @16": 4.5,
        "gff total speedup @192": 20.7,
        "gff loop1 speedup 16->192": 11.93,
        "gff loop2 imbalance @192": 3.0,
        "rtt loop speedup 4->32": 8.37,
        "rtt total speedup @32": 19.75,
    }
    return RobustnessResult(seeds=list(seeds), metrics=metrics, paper=paper)
