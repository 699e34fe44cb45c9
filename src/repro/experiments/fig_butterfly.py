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
* **Real execution check** — the actual simulated-MPI stage on a
  miniature skewed workload at 8 ranks, asserting both strategies
  reproduce the serial ``butterfly_assemble`` output exactly (the
  byte-identity invariant the equivalence suite also locks down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.mpi.launcher import mpirun
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendStageConfig,
    contig_only_inputs,
    mpi_chrysalis_backend,
)
from repro.parallel.scaling import ScalingPoint, rank_loads
from repro.trinity.butterfly import ButterflyConfig, butterfly_assemble
from repro.trinity.chrysalis.debruijn import fasta_to_debruijn
from repro.util.fmt import format_table
from repro.util.rng import derive_seed, spawn_rng

#: Paper-scale sweep: the node counts of the Figure 7/9 series.
SWEEP_NODES = (8, 16, 32, 64, 128)
N_COMPONENTS = 2_000
REAL_NPROCS = 8


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
    """Analytic strategy sweep plus the real-execution identity check."""

    rows: List[Tuple[int, ScalingPoint, ScalingPoint]]
    real_static_makespan: float
    real_dynamic_makespan: float
    outputs_identical: bool

    @property
    def real_gain(self) -> float:
        """Static over dynamic virtual makespan of the real 8-rank run."""
        return self.real_static_makespan / self.real_dynamic_makespan

    def gain(self, nodes: int) -> float:
        for n, static, dynamic in self.rows:
            if n == nodes:
                return static.loop_max / dynamic.loop_max
        raise KeyError(f"no simulated point at {nodes} nodes")

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
            f"real mpirun @{REAL_NPROCS} ranks: static {self.real_static_makespan:.4f}s, "
            f"dynamic {self.real_dynamic_makespan:.4f}s ({self.real_gain:.2f}x), "
            f"outputs vs serial: {check}"
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
    serial = butterfly_assemble(
        {cid: fasta_to_debruijn([seq], 25) for cid, seq in enumerate(seqs)}, cfg
    )
    inputs = contig_only_inputs(seqs)
    runs = {
        strategy: mpirun(
            mpi_chrysalis_backend, REAL_NPROCS, inputs,
            ChrysalisBackendStageConfig(butterfly=cfg, nthreads=1, strategy=strategy),
        )
        for strategy in ("round_robin", "dynamic")
    }
    identical = all(r.outputs[0].transcripts == serial for r in runs.values())
    return FigButterflyResult(
        rows=rows,
        real_static_makespan=runs["round_robin"].makespan,
        real_dynamic_makespan=runs["dynamic"].makespan,
        outputs_identical=identical,
    )
