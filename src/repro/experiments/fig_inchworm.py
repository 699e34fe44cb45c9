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
* **Real execution check** — the actual simulated-MPI stage on the
  whitefly miniature at 8 ranks, asserting both strategies reproduce
  serial ``inchworm_assemble`` byte-for-byte (the identity invariant the
  integration suite also locks down), and reporting the measured
  virtual-clock speedup.
* **Whole-pipeline critical path** — with Inchworm distributed, every
  compute stage of the driver now runs under ``mpirun``; walking the
  driver's own stage table with a traced launcher and summing the
  :func:`repro.obs.critical_path` reports yields the pipeline-level
  critical-path serial fraction — the number the paper's future-work
  section is ultimately about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.costmodel import CALIBRATION
from repro.mpi.launcher import mpirun
from repro.obs import critical_path, verify_attribution
from repro.parallel.driver import ParallelTrinityConfig, run_chain
from repro.parallel.scaling import ScalingPoint, simulate_inchworm
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig
from repro.trinity.inchworm import inchworm_assemble, neighbours
from repro.trinity.jellyfish import jellyfish_count
from repro.trinity.kmer_components import component_ids, kmer_components
from repro.util.fmt import format_table

#: Paper-scale sweep, starting at 1 to show the serial anchor.
SWEEP_NODES = (1, 2, 4, 8, 16, 32, 64)
REAL_NPROCS = 8


@dataclass
class FigInchwormResult:
    """Analytic strategy sweep, identity check, pipeline serial fraction."""

    rows: List[Tuple[int, ScalingPoint, ScalingPoint]]
    serial_baseline_s: float
    n_components: int
    real_serial_makespan: float
    real_static_makespan: float
    real_dynamic_makespan: float
    outputs_identical: bool
    #: Per-stage ``(stage, makespan, serial_time)`` from the six traced
    #: mpirun critical-path reports, in driver launch order.
    pipeline_stages: List[Tuple[str, float, float]]

    @property
    def real_speedup(self) -> float:
        """Serial over the better 8-rank virtual makespan."""
        return self.real_serial_makespan / min(
            self.real_static_makespan, self.real_dynamic_makespan
        )

    @property
    def pipeline_serial_fraction(self) -> float:
        """Critical-path serial share of the whole six-stage pipeline."""
        total = sum(mk for _stage, mk, _ser in self.pipeline_stages)
        serial = sum(ser for _stage, _mk, ser in self.pipeline_stages)
        return serial / total if total > 0 else 0.0

    def speedup(self, nodes: int, strategy: str = "dynamic") -> float:
        for n, static, dynamic in self.rows:
            if n == nodes:
                point = dynamic if strategy == "dynamic" else static
                return self.serial_baseline_s / point.total_s
        raise KeyError(f"no simulated point at {nodes} nodes")

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
        real = (
            f"real mpirun @{REAL_NPROCS} ranks over {self.n_components} "
            f"components: serial {self.real_serial_makespan:.4f}s, "
            f"static {self.real_static_makespan:.4f}s, "
            f"dynamic {self.real_dynamic_makespan:.4f}s "
            f"({self.real_speedup:.2f}x), contigs vs serial: {check}"
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


def _chain(
    tcfg: TrinityConfig, reads, nprocs: int, *,
    trace: bool, strategy: str = "round_robin", target: Optional[str] = None,
):
    """Walk the driver's stage table (up to ``target``) under plain,
    optionally traced, ``mpirun``; returns the runs by stage key."""
    cfg = ParallelTrinityConfig(
        trinity=tcfg, nprocs=nprocs, butterfly_strategy=strategy
    )
    return run_chain(
        cfg, reads,
        lambda row, inputs, stage_config: mpirun(
            row.fn, nprocs, inputs, stage_config, network=cfg.network, trace=trace
        ),
        target=target,
    ).runs


def _pipeline_stage_reports(seed: int, nprocs: int) -> List[Tuple[str, float, float]]:
    """Chain all six traced MPI stages; return (stage, makespan, serial).

    The smoke workload keeps the six traced launches cheap; the chain is
    the driver's own stage table with checkpoints and recovery stripped.
    """
    _txome, pairs = get_recipe("smoke").materialize(seed=seed)
    runs = _chain(TrinityConfig(seed=seed), flatten_reads(pairs), nprocs, trace=True)
    stages: List[Tuple[str, float, float]] = []
    for run in runs.values():
        verify_attribution(run)
        report = critical_path(run)
        stages.append((run.stage, report.makespan, report.serial_time))
    return stages


def run(seed: int = 0, nodes: Sequence[int] = SWEEP_NODES) -> FigInchwormResult:
    # -- real component masses drive the analytic sweep ----------------------
    tcfg = TrinityConfig(seed=seed)
    _txome, pairs = get_recipe("whitefly-mini").materialize(seed=seed)
    reads = flatten_reads(pairs)
    counts = jellyfish_count(reads, tcfg.k)
    filtered = counts.index.filtered(tcfg.min_kmer_count)
    ids = component_ids(kmer_components(neighbours(filtered, counts.canonical)))
    costs = np.bincount(ids, weights=filtered.values)
    serial_contigs = inchworm_assemble(counts, tcfg.inchworm())
    contig_bytes = float(sum(len(c.seq) for c in serial_contigs))
    rows = list(zip(
        nodes,
        *(
            simulate_inchworm(nodes, costs, strategy, contig_bytes)
            for strategy in ("round_robin", "dynamic")
        ),
    ))

    # -- real execution identity check ---------------------------------------
    def inchworm_run(nprocs: int, strategy: str = "round_robin"):
        return _chain(
            tcfg, reads, nprocs, trace=False, strategy=strategy, target="inchworm"
        )["inchworm"]

    serial_run = inchworm_run(1)
    runs = {
        strategy: inchworm_run(REAL_NPROCS, strategy)
        for strategy in ("round_robin", "dynamic")
    }
    identical = all(
        r.outputs.contigs == serial_contigs
        for run in [serial_run, *runs.values()]
        for r in run.outputs
    )

    pipeline_stages = _pipeline_stage_reports(seed=1, nprocs=REAL_NPROCS)
    return FigInchwormResult(
        rows=rows,
        serial_baseline_s=CALIBRATION.inchworm_serial_s,  # paper Fig 2: ~5 h
        n_components=int(runs["dynamic"].outputs[0].n_components),
        real_serial_makespan=serial_run.makespan,
        real_static_makespan=runs["round_robin"].makespan,
        real_dynamic_makespan=runs["dynamic"].makespan,
        outputs_identical=identical,
        pipeline_stages=pipeline_stages,
    )
