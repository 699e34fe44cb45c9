"""Cluster modelling: cost calibration and workload statistics.

Carries the calibration constants that anchor our virtual seconds to the
paper's measured single-node baselines on its testbed ("Blue Wonder", a
512-node iDataPlex with 2x8-core 2.6 GHz SandyBridge per node), and the
sampled per-item workloads the scaling replays deal.
"""

from repro.cluster.costmodel import PaperCalibration, CALIBRATION
from repro.cluster.workload import ChrysalisWorkload, build_workload

__all__ = [
    "PaperCalibration",
    "CALIBRATION",
    "ChrysalisWorkload",
    "build_workload",
]
