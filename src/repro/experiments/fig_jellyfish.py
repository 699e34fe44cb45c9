"""Distributed Jellyfish: deal → exchange → owner-merge scaling.

Not a reproduction of a paper figure — the paper keeps Jellyfish on the
big-memory node (Fig 11's "not recorded" front end) and flags its memory
appetite as the pipeline's wall (§II.A).  This experiment quantifies
what the distributed stage of :mod:`repro.parallel.mpi_jellyfish` buys:

* **Analytic sweep** — the sugarbeet-scale counting pass replayed
  through :func:`repro.parallel.scaling.simulate_jellyfish` at
  paper-scale node counts, splitting each point into count / exchange /
  merge / gather (modelled).  The final allgatherv replicates the solid
  table on every rank, so the speedup saturates — the stage's Amdahl
  floor, and the number to beat for any future sharded-table variant.
* **Measured line** — the stage on the whitefly miniature at 1 and 8
  ranks (:func:`repro.experiments.measured.row_runs`): both virtual
  makespans, and whether the 8-rank table equals the 1-rank one.
  Equality with serial ``jellyfish_count`` is
  ``tests/integration/test_mpi_jellyfish.py``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster.costmodel import CALIBRATION
from repro.experiments.measured import REAL_NPROCS, agree, row_runs
from repro.parallel.scaling import ScalingPoint, simulate_jellyfish
from repro.util.fmt import format_table

#: Paper-scale sweep, starting at 1 to show the serial anchor.
SWEEP_NODES = (1, 2, 4, 8, 16, 32, 64)
RECIPE = "whitefly-mini"


@dataclass
class FigJellyfishResult:
    """Analytic scaling sweep plus the measured 1-vs-8-rank line."""

    points: List[ScalingPoint]
    serial_baseline_s: float
    real_serial_makespan: float
    real_mpi_makespan: float
    outputs_identical: bool

    def render(self) -> str:
        rows = [
            [
                p.nodes,
                f"{p.count_max:.0f}",
                f"{p.merge_max:.0f}",
                f"{p.exchange_max + p.gather_max:.1f}",
                f"{p.total_s:.0f}",
                f"{self.serial_baseline_s / p.total_s:.2f}",
            ]
            for p in self.points
        ]
        table = format_table(
            ["nodes", "count (s)", "merge (s)", "comm (s)", "total (s)", "speedup"],
            rows,
        )
        check = "identical" if self.outputs_identical else "DIVERGED"
        real = (
            f"measured ({RECIPE}, virtual s): 1 rank {self.real_serial_makespan:.4f}, "
            f"{REAL_NPROCS} ranks {self.real_mpi_makespan:.4f} "
            f"({self.real_serial_makespan / self.real_mpi_makespan:.2f}x), "
            f"{REAL_NPROCS}-rank table vs 1-rank: {check}"
        )
        return f"Distributed Jellyfish — scaling decomposition (modelled)\n{table}\n\n{real}"


def run(seed: int = 0, nodes: Sequence[int] = SWEEP_NODES) -> FigJellyfishResult:
    _chain, (runs,) = row_runs("jellyfish", RECIPE, seed, (1, REAL_NPROCS))
    return FigJellyfishResult(
        points=simulate_jellyfish(nodes),
        serial_baseline_s=CALIBRATION.jellyfish_serial_s,  # paper Fig 2: ~2.5 h
        real_serial_makespan=runs[1].makespan,
        real_mpi_makespan=runs[REAL_NPROCS].makespan,
        outputs_identical=agree(
            runs.values(),
            lambda out: (out.counts.codes.tobytes(), out.counts.values.tobytes()),
        ),
    )
