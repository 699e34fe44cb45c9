"""Distributed Inchworm: component-partitioned assembly scaling.

Not a reproduction of a paper figure — the paper leaves Inchworm on the
front-end node (Fig 11's "not recorded" front end) and its conclusion
calls for "focusing our efforts on the non-parallelized regions of the
pipeline".  This experiment quantifies what the component-partitioned
stage of :mod:`repro.parallel.mpi_inchworm` buys:

* **Analytic sweep** — the paper-scale greedy-extension pass replayed
  through :func:`repro.parallel.scaling.simulate_inchworm` at
  Figure-7-series node counts, for both deal strategies, using the
  *real* per-component k-mer count masses of the whitefly miniature
  (scaled to the Fig 2 serial Inchworm anchor) rather than a synthetic
  skew.  Two floors cap the speedup: the replicated component
  labelling, and the indivisible largest component (a walk cannot
  be split below component granularity), which saturates the sweep well
  before the node counts run out.
* **Measured line** — the stage on the whitefly miniature at 1 and 8
  ranks under both deals (:func:`repro.experiments.measured.row_runs`,
  whose upstream Jellyfish launch also gives the sweep its masses): the
  virtual makespans, and whether all four launches' contigs agree.
  Equality with the serial Inchworm is
  ``tests/integration/test_mpi_inchworm.py``'s.
* **Whole-pipeline critical path** — with Inchworm distributed, every
  compute stage of the driver now runs under ``mpirun``; walking the
  driver's own stage table with a traced launcher and summing the
  :func:`repro.obs.critical_path` reports yields the pipeline-level
  critical-path serial fraction — the number the paper's future-work
  section is ultimately about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.cluster.costmodel import CALIBRATION
from repro.experiments.measured import REAL_NPROCS, agree, row_runs
from repro.mpi.launcher import mpirun
from repro.obs import critical_path, verify_attribution
from repro.parallel.driver import ParallelTrinityConfig, run_chain
from repro.parallel.mpi_inchworm import component_setup
from repro.parallel.scaling import ScalingPoint, simulate_inchworm
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig
from repro.trinity.inchworm import neighbours
from repro.util.fmt import format_table

#: Paper-scale sweep, starting at 1 to show the serial anchor.
SWEEP_NODES = (1, 2, 4, 8, 16, 32, 64)
RECIPE = "whitefly-mini"
#: The two deals, by their column name.
DEALS = {"static": "round_robin", "dynamic": "dynamic"}


@dataclass
class FigInchwormResult:
    """Analytic strategy sweep, measured line, pipeline serial fraction."""

    rows: List[Tuple[int, ScalingPoint, ScalingPoint]]
    serial_baseline_s: float
    n_components: int
    #: ``(deal column, 1-rank makespan, 8-rank makespan)`` per deal.
    real_makespans: List[Tuple[str, float, float]]
    outputs_identical: bool
    #: Per-stage ``(stage, makespan, serial_time)`` from the six traced
    #: mpirun critical-path reports, in driver launch order.
    pipeline_stages: List[Tuple[str, float, float]]

    @property
    def pipeline_serial_fraction(self) -> float:
        """Critical-path serial share of the whole six-stage pipeline."""
        total = sum(mk for _stage, mk, _ser in self.pipeline_stages)
        serial = sum(ser for _stage, _mk, ser in self.pipeline_stages)
        return serial / total if total > 0 else 0.0

    def render(self) -> str:
        rows = [
            [
                n,
                f"{static.total_s:.0f}",
                f"{static.assemble_imbalance:.2f}",
                f"{dynamic.total_s:.0f}",
                f"{dynamic.assemble_imbalance:.2f}",
                f"{self.serial_baseline_s / dynamic.total_s:.2f}",
            ]
            for n, static, dynamic in self.rows
        ]
        table = format_table(
            ["nodes", "static (s)", "max/min", "dynamic (s)", "max/min",
             "speedup"],
            rows,
        )
        check = "identical" if self.outputs_identical else "DIVERGED"
        deals = " / ".join(
            f"{deal} {one:.4f} -> {many:.4f} ({one / many:.2f}x)"
            for deal, one, many in self.real_makespans
        )
        real = (
            f"measured ({RECIPE}, virtual s) over {self.n_components} components, "
            f"1 -> {REAL_NPROCS} ranks: {deals}, contigs across ranks and deals: {check}"
        )
        stage_rows = [
            [stage, f"{mk:.4f}", f"{ser:.4f}", f"{ser / mk if mk > 0 else 0.0:.3f}"]
            for stage, mk, ser in self.pipeline_stages
        ]
        stage_table = format_table(
            ["stage", "makespan (s)", "serial (s)", "fraction"], stage_rows
        )
        pipeline = (
            f"whole-pipeline critical-path serial fraction "
            f"(six traced stages @{REAL_NPROCS} ranks): "
            f"{self.pipeline_serial_fraction:.3f}\n{stage_table}"
        )
        return (
            f"Distributed Inchworm — component-partitioned scaling\n{table}"
            f"\n\n{real}\n\n{pipeline}"
        )


def _pipeline_stage_reports(seed: int, nprocs: int) -> List[Tuple[str, float, float]]:
    """Chain all six traced MPI stages; return (stage, makespan, serial).

    The smoke workload keeps the six traced launches cheap; the chain is
    the driver's own stage table with checkpoints and recovery stripped.
    """
    _txome, pairs = get_recipe("smoke").materialize(seed=seed)
    cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=seed), nprocs=nprocs)
    chain = run_chain(
        cfg, flatten_reads(pairs),
        lambda row, inputs, config: mpirun(
            row.fn, nprocs, inputs, config, network=cfg.network, trace=True
        ),
    )
    stages: List[Tuple[str, float, float]] = []
    for run in chain.runs.values():
        verify_attribution(run)
        report = critical_path(run)
        stages.append((run.stage, report.makespan, report.serial_time))
    return stages


def run(seed: int = 0, nodes: Sequence[int] = SWEEP_NODES) -> FigInchwormResult:
    chain, runs = row_runs("inchworm", RECIPE, seed, (1, REAL_NPROCS), tuple(DEALS.values()))

    # -- real component masses drive the analytic sweep ----------------------
    counts = chain.out("jellyfish").counts
    solid = counts.index
    _landing, _ids, costs = component_setup(solid, [neighbours(solid, counts.canonical)])
    contig_bytes = float(sum(len(c.seq) for c in chain.contigs))
    rows = list(zip(
        nodes,
        *(simulate_inchworm(nodes, costs, strategy, contig_bytes) for strategy in DEALS.values()),
    ))

    return FigInchwormResult(
        rows=rows,
        serial_baseline_s=CALIBRATION.inchworm_serial_s,  # paper Fig 2: ~5 h
        n_components=int(chain.runs["inchworm"].outputs[0].metrics["n_components"]),
        real_makespans=[
            (deal, dealt[1].makespan, dealt[REAL_NPROCS].makespan)
            for deal, dealt in zip(DEALS, runs)
        ],
        outputs_identical=agree(
            [run for dealt in runs for run in dealt.values()], lambda out: out.contigs
        ),
        pipeline_stages=_pipeline_stage_reports(seed=1, nprocs=REAL_NPROCS),
    )
