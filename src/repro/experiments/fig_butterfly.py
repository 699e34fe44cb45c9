"""Distributed Butterfly: dynamic LPT deal vs chunked round-robin.

Not a reproduction of a paper figure — the paper leaves Butterfly serial
and its conclusion calls for "focusing our efforts on the non-parallelized
regions of the pipeline".  This experiment quantifies what distributing
the Butterfly walk (the fused :mod:`repro.parallel.mpi_chrysalis_backend`
stage fed contig-only inputs) buys and how much of it needs the cost
model:

* **Analytic sweep** — a heavy-tailed per-component cost distribution
  (the abundance skew of real transcriptomes) dealt by
  :func:`repro.parallel.scaling.rank_loads` at paper-scale node counts,
  for both deal strategies.  Each rank enumerates its
  components serially (``nthreads=1``), so the deal *is* the makespan.
* **Measured line** — the stage on a miniature stride-skewed workload
  (:func:`skewed_contigs`) at 8 ranks under both deals: the two virtual
  makespans, and whether the two deals' transcripts are equal.
  Equality with the serial walk is
  ``tests/integration/test_mpi_chrysalis_backend.py``'s
  (``test_fused_equals_separate_butterfly_walk``, on skewed contigs too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.experiments.measured import REAL_NPROCS, agree
from repro.mpi.launcher import mpirun
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendStageConfig,
    contig_only_inputs,
    mpi_chrysalis_backend,
)
from repro.parallel.scaling import ScalingPoint, rank_loads
from repro.trinity.butterfly import ButterflyConfig
from repro.util.fmt import format_table
from repro.util.rng import derive_seed, spawn_rng

#: Paper-scale sweep: the node counts of the Figure 7/9 series.
SWEEP_NODES = (8, 16, 32, 64, 128)
N_COMPONENTS = 2_000


def sample_component_costs(seed: int = 0, n_components: int = N_COMPONENTS) -> np.ndarray:
    """Heavy-tailed per-component enumeration costs (arbitrary units).

    Lognormal with a fat sigma: most components are single-transcript
    genes, a few deeply-expressed families carry most of the path
    enumeration work — the same skew shape as the loop-2 weld costs.
    """
    rng = spawn_rng(seed, "butterfly-components")
    return rng.lognormal(0.0, 1.6, size=n_components)


def skewed_contigs(
    seed: int, nprocs: int, label: str = "butterfly-bench", n_components: int = 24
) -> List[str]:
    """Miniature skewed workload: one random contig per component, the
    heavy (12x longer) ones at stride ``nprocs`` — the cost-blind
    round-robin's worst case (every heavy lands on rank 0)."""
    rng = np.random.default_rng(derive_seed(seed, label))
    alphabet = np.array(list("ACGT"))
    return [
        "".join(
            rng.choice(alphabet, size=300 * (12 if cid % nprocs == 0 else 1)).tolist()
        )
        for cid in range(n_components)
    ]


@dataclass
class FigButterflyResult:
    """Analytic strategy sweep plus the measured two-deal line."""

    rows: List[Tuple[int, ScalingPoint, ScalingPoint]]
    real_static_makespan: float
    real_dynamic_makespan: float
    outputs_identical: bool

    def render(self) -> str:
        rows = [
            [
                n,
                f"{static.loop_max:.1f}",
                f"{static.loop_imbalance:.2f}",
                f"{dynamic.loop_max:.1f}",
                f"{dynamic.loop_imbalance:.2f}",
                f"{static.loop_max / dynamic.loop_max:.2f}",
            ]
            for n, static, dynamic in self.rows
        ]
        table = format_table(
            ["nodes", "static (u)", "max/min", "dynamic (u)", "max/min", "gain"],
            rows,
        )
        check = "identical" if self.outputs_identical else "DIVERGED"
        real = (
            f"measured (skewed contigs, virtual s): {REAL_NPROCS} ranks "
            f"static {self.real_static_makespan:.4f} / dynamic "
            f"{self.real_dynamic_makespan:.4f} "
            f"({self.real_static_makespan / self.real_dynamic_makespan:.2f}x), "
            f"dynamic transcripts vs static: {check}"
        )
        return f"Distributed Butterfly — deal strategies\n{table}\n\n{real}"


def run(seed: int = 0, nodes: Sequence[int] = SWEEP_NODES) -> FigButterflyResult:
    costs = sample_component_costs(seed=seed)
    rows = [
        (
            n,
            *(
                ScalingPoint.of(n, loop=rank_loads(costs, n, strategy, nthreads=1))
                for strategy in ("round_robin", "dynamic")
            ),
        )
        for n in nodes
    ]

    seqs = skewed_contigs(seed, REAL_NPROCS)
    cfg = ButterflyConfig(seed=seed)
    inputs = contig_only_inputs(seqs)
    runs = {
        strategy: mpirun(
            mpi_chrysalis_backend, REAL_NPROCS, inputs,
            ChrysalisBackendStageConfig(butterfly=cfg, nthreads=1, strategy=strategy),
        )
        for strategy in ("round_robin", "dynamic")
    }
    return FigButterflyResult(
        rows=rows,
        real_static_makespan=runs["round_robin"].makespan,
        real_dynamic_makespan=runs["dynamic"].makespan,
        outputs_identical=agree(runs.values(), lambda out: out.transcripts),
    )
