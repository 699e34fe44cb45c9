"""Fused Chrysalis back end vs the pre-fusion serial-middle path.

Not a reproduction of a paper figure — the paper's conclusion calls for
"focusing our efforts on the non-parallelized regions of the pipeline",
and after the distributed Butterfly two such regions remained in the
hybrid driver: the serial FastaToDebruijn and QuantifyGraph that ran on
the front-end node between RTT and Butterfly, followed by a full
allgather of the quantified graphs.  This experiment quantifies what
fusing the whole back-end chain into one component-parallel stage
(:mod:`repro.parallel.mpi_chrysalis_backend`) buys:

* **Analytic sweep** — heavy-tailed per-component build/quantify/walk
  cost distributions (the same abundance skew as the Butterfly sweep)
  dealt by :func:`repro.parallel.scaling.rank_loads` at paper-scale node
  counts — as whole components (each one's build + quantify + walk sum)
  and as the units the stage deals (:func:`unit_costs`: what stays
  indivisible is the walk) — against :func:`prefusion_total_s`, the
  serial-middle + graph-allgather + distributed-walk baseline.
* **Measured line** — the stage as the driver ships it (round-robin
  deal, 16 threads per rank, pair reconciliation on) on the whitefly
  miniature at 1 and 8 ranks, as fig-jellyfish and fig-inchworm measure
  (:func:`repro.experiments.measured.row_runs`): both virtual makespans,
  and whether the 8-rank transcripts and quant stats equal the 1-rank
  ones.  Equality with the serial chain is
  ``tests/integration/test_mpi_chrysalis_backend.py``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.experiments.measured import REAL_NPROCS, agree, row_runs
from repro.parallel.scaling import NETWORK, ScalingPoint, rank_loads
from repro.util.fmt import format_table
from repro.util.rng import spawn_rng

#: Paper-scale sweep: the node counts of the Figure 7/9 series.
SWEEP_NODES = (8, 16, 32, 64, 128)
N_COMPONENTS = 2_000
RECIPE = "whitefly-mini"
#: Pooled-payload stand-ins for the analytic sweep (arbitrary but
#: size-ordered: quantified graphs outweigh transcripts ~30x).
GRAPH_BYTES = 6e9
TRANSCRIPT_BYTES = 2e8
#: Components whose reads fit one read block (benchmark whitefly library):
#: that quantile of quantify cost is a block's.
ONE_BLOCK_SHARE = 60 / 65


def sample_phase_costs(
    seed: int = 0, n_components: int = N_COMPONENTS
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heavy-tailed (build, quantify, walk) per-component costs.

    All three phases scale with the same node count, so they share one
    lognormal skew; quantify dominates (read threading touches every
    assigned read) with build and walk at smaller multiples — the rough
    proportions of the serial smoke profile.
    """
    rng = spawn_rng(seed, "chrysalis-components")
    base = rng.lognormal(0.0, 1.6, size=n_components)
    return 0.6 * base, 2.4 * base, 1.0 * base


def unit_costs(build: np.ndarray, quantify: np.ndarray, walk: np.ndarray) -> np.ndarray:
    """The stage's (component, read block) units, costed: quantify cut in
    blocks of at most a block's cost, build + walk on the owner's first."""
    n_blocks = np.maximum(np.ceil(quantify / np.quantile(quantify, ONE_BLOCK_SHARE)), 1)
    first = np.concatenate(([0], np.cumsum(n_blocks[:-1]))).astype(int)
    units = np.repeat(quantify / n_blocks, n_blocks.astype(int))
    units[first] += build + walk
    return units


def prefusion_total_s(
    nodes: int, build: np.ndarray, quantify: np.ndarray, walk: np.ndarray
) -> float:
    """The driver path the fused stage replaced: FastaToDebruijn and
    QuantifyGraph run serially on the front-end node (their costs sum
    whatever the node count), the quantified graphs are allgathered to
    every rank, and only the Butterfly walk is dealt."""
    serial_middle = float(np.sum(build) + np.sum(quantify))
    walk_s = float(rank_loads(walk, nodes, "dynamic", nthreads=1).max())
    return serial_middle + NETWORK.allgatherv(nodes, GRAPH_BYTES) + walk_s


@dataclass
class FigChrysalisResult:
    """Analytic fusion sweep plus the measured 1-vs-8-rank line."""

    #: (nodes, pre-fusion total, fused dealt by component, ... by unit)
    rows: List[Tuple[int, float, ScalingPoint, ScalingPoint]]
    #: QuantifyGraph's share of the summed fused cost: the slowest rank's
    #: loop splits build / quantify / walk in the global proportions.
    quantify_share: float
    real_serial_makespan: float
    real_mpi_makespan: float
    outputs_identical: bool

    def render(self) -> str:
        rows = [
            [
                n,
                f"{prefusion:.1f}",
                f"{fused.total_s:.1f}",
                f"{by_unit.total_s:.1f}",
                f"{fused.loop_max * self.quantify_share:.1f}",
                f"{fused.merge_max:.3f}",
                f"{prefusion / fused.total_s:.2f}",
            ]
            for n, prefusion, fused, by_unit in self.rows
        ]
        table = format_table(
            ["nodes", "pre-fusion (u)", "fused (u)", "unit-dealt (u)", "quantify (u)",
             "gather (u)", "gain"],
            rows,
        )
        check = "identical" if self.outputs_identical else "DIVERGED"
        real = (
            f"measured ({RECIPE}, virtual s): 1 rank {self.real_serial_makespan:.4f}, "
            f"{REAL_NPROCS} ranks {self.real_mpi_makespan:.4f} "
            f"({self.real_serial_makespan / self.real_mpi_makespan:.2f}x), "
            f"{REAL_NPROCS}-rank transcripts + quant stats vs 1-rank: {check}"
        )
        return f"Fused Chrysalis back end — serial middle eliminated\n{table}\n\n{real}"


def run(seed: int = 0, nodes: Sequence[int] = SWEEP_NODES) -> FigChrysalisResult:
    build, quantify, walk = sample_phase_costs(seed=seed)
    fused_costs = build + quantify + walk
    rows = [
        (
            n,
            prefusion_total_s(n, build, quantify, walk),
            *(
                ScalingPoint.of(
                    n,
                    loop=rank_loads(costs, n, "dynamic", nthreads=1),
                    merge=NETWORK.allgatherv(n, TRANSCRIPT_BYTES),
                )
                for costs in (fused_costs, unit_costs(build, quantify, walk))
            ),
        )
        for n in nodes
    ]

    # The whitefly miniature at seed 1, whatever the sweep's seed.
    _chain, (runs,) = row_runs("chrysalis", RECIPE, 1, (1, REAL_NPROCS))
    return FigChrysalisResult(
        rows=rows,
        quantify_share=float(quantify.sum() / fused_costs.sum()),
        real_serial_makespan=runs[1].makespan,
        real_mpi_makespan=runs[REAL_NPROCS].makespan,
        outputs_identical=agree(runs.values(), lambda out: (out.transcripts, out.quant_stats)),
    )
