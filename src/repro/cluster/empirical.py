"""Empirical per-item cost measurement — the calibration's ground truth.

DESIGN.md's scaling replays assume loop-1 cost grows ~linearly with
contig length (and loop 2 with length x a heavy-tailed hit factor).
This module *measures* per-contig wall time of the real GraphFromFasta
kernels on a miniature run and fits a power law ``cost ~ length^alpha``,
so the assumption is checked against the implementation instead of taken
on faith (experiment ``calibration-check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mpi.clock import Stopwatch
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    build_weld_index,
    build_weldmer_index,
    find_weld_pairs_for_contig,
    harvest_welds_for_contig,
    shared_seed_array,
    weld_index_keys,
)


@dataclass
class KernelCostSample:
    """Measured per-contig costs of the two GraphFromFasta loops."""

    lengths: np.ndarray
    loop1_s: np.ndarray
    loop2_s: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.lengths) == len(self.loop1_s) == len(self.loop2_s)):
            raise ValueError("cost arrays must align with lengths")


def measure_gff_item_costs(
    contigs: Sequence[Contig],
    reads: Sequence[SeqRecord],
    cfg: GraphFromFastaConfig,
    repeats: int = 3,
) -> KernelCostSample:
    """Time each contig through the loop-1 and loop-2 kernels in thread CPU
    (:class:`~repro.mpi.clock.Stopwatch`: a loaded host's other work is not
    charged); ``repeats`` > 1 takes the minimum across repetitions."""
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    shared_seeds = shared_seed_array(contigs, cfg)
    weldmers = build_weldmer_index(reads, shared_seeds, cfg)
    welds = []
    for idx, contig in enumerate(contigs):
        welds.extend(harvest_welds_for_contig(idx, contig, cfg, shared_seeds))
    weld_index = build_weld_index(welds)
    weld_keys = weld_index_keys(weld_index)

    n = len(contigs)
    loop1 = np.full(n, np.inf)
    loop2 = np.full(n, np.inf)
    for _ in range(repeats):
        for idx, contig in enumerate(contigs):
            with Stopwatch() as watch:
                harvest_welds_for_contig(idx, contig, cfg, shared_seeds)
            loop1[idx] = min(loop1[idx], watch.seconds)
            with Stopwatch() as watch:
                find_weld_pairs_for_contig(
                    idx, contig, welds, weld_index, weldmers, cfg, weld_keys
                )
            loop2[idx] = min(loop2[idx], watch.seconds)
    return KernelCostSample(
        lengths=np.array([len(c.seq) for c in contigs], dtype=float),
        loop1_s=loop1,
        loop2_s=loop2,
    )


@dataclass(frozen=True)
class PowerLawFit:
    """``cost = scale * length^alpha`` fitted in log-log space."""

    alpha: float
    scale: float
    r_squared: float


def fit_power_law(lengths: Sequence[float], costs: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of log(cost) against log(length)."""
    x = np.log(np.asarray(lengths, dtype=float))
    y = np.log(np.maximum(np.asarray(costs, dtype=float), 1e-12))
    if x.size < 3:
        raise ValueError("need at least 3 samples to fit")
    alpha, log_scale = np.polyfit(x, y, 1)
    pred = alpha * x + log_scale
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return PowerLawFit(alpha=float(alpha), scale=float(np.exp(log_scale)), r_squared=r2)


@dataclass(frozen=True)
class AffineFit:
    """``cost = c0 + c1 * length`` — per-call overhead + per-base cost.

    At miniature contig lengths the constant ``c0`` (function-call and
    array-setup overhead) dominates, which makes a naive power-law fit
    report ``alpha < 1``; at paper-scale lengths (10^2..3x10^4 bp) the
    ``c1 * length`` term is the asymptote the replay's
    length-proportional cost vectors model.
    """

    c0: float  # seconds per call
    c1: float  # seconds per base
    r_squared: float

    def overhead_fraction(self, length: float) -> float:
        """Share of the cost that is fixed overhead at a given length."""
        total = self.c0 + self.c1 * length
        return self.c0 / total if total > 0 else 0.0


def fit_affine(lengths: Sequence[float], costs: Sequence[float]) -> AffineFit:
    """Least-squares fit of cost against length (with intercept)."""
    x = np.asarray(lengths, dtype=float)
    y = np.asarray(costs, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 samples to fit")
    c1, c0 = np.polyfit(x, y, 1)
    pred = c1 * x + c0
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return AffineFit(c0=float(c0), c1=float(c1), r_squared=r2)
