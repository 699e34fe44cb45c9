"""Experiment registry: id -> runner, with lazy imports.

``run_experiment("fig07")`` executes a runner with its defaults and
returns the result object (every result has ``render()``).  Measurements
are not registered here: stage and pipeline timings come from
``python3 -m benchmarks.pipeline`` (run from a checkout).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict


@dataclass(frozen=True)
class Experiment:
    """One registered experiment."""

    id: str
    title: str
    module: str
    runner: str = "run"

    def load(self) -> Callable[..., Any]:
        mod = importlib.import_module(self.module)
        return getattr(mod, self.runner)


EXPERIMENTS: Dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment("fig01", "Inchworm seed extension, traced", "repro.experiments.fig01_extension"),
        Experiment("fig02", "Original Trinity timeline (RAM vs runtime)", "repro.experiments.fig02_baseline_timeline"),
        Experiment("fig03", "Chunked round-robin distribution", "repro.experiments.fig03_scheduling"),
        Experiment("fig04", "All-vs-all SW validation", "repro.experiments.fig04_validation"),
        Experiment("fig05_06", "Reference full-length/fused recovery", "repro.experiments.fig05_fig06_reference"),
        Experiment("fig07", "Hybrid GraphFromFasta scaling", "repro.experiments.fig07_gff_scaling"),
        Experiment("fig08", "GraphFromFasta time breakdown", "repro.experiments.fig08_gff_breakdown"),
        Experiment("fig09", "Hybrid ReadsToTranscripts scaling", "repro.experiments.fig09_rtt_scaling"),
        Experiment("fig10", "Parallel Bowtie with PyFasta split", "repro.experiments.fig10_bowtie"),
        Experiment("fig11", "Hybrid Trinity timeline at 16 nodes", "repro.experiments.fig11_parallel_timeline"),
        Experiment("headline", "Abstract headline numbers", "repro.experiments.headline"),
        Experiment("abl-sched", "Static blocks vs chunked round-robin", "repro.experiments.ablations", "run_scheduler_ablation"),
        Experiment("abl-rtt-io", "Master/slave vs redundant-read RTT", "repro.experiments.ablations", "run_rtt_io_ablation"),
        Experiment("abl-merge", "cat vs root-gather output merge", "repro.experiments.ablations", "run_merge_ablation"),
        Experiment("abl-chunksize", "Chunk-count sensitivity of Fig 7", "repro.experiments.chunksize_ablation", "run_chunksize_ablation"),
        Experiment("calibration-check", "Measured kernel cost vs contig length", "repro.experiments.calibration_check"),
        Experiment("abl-dsk", "Jellyfish vs DSK k-mer counting", "repro.experiments.dsk_ablation", "run_dsk_ablation"),
        Experiment("fw-dynamic", "Future work: dynamic chunk partitioning", "repro.experiments.futurework", "run_dynamic_partition"),
        Experiment("fw-serial-regions", "Future work: parallel GFF setup regions", "repro.experiments.futurework", "run_serial_regions"),
        Experiment("robustness", "Seed robustness of the scaling conclusions", "repro.experiments.robustness", "run_robustness"),
        Experiment("faults", "Makespan degradation under injected faults", "repro.experiments.faults", "run_fault_sweep"),
        Experiment("fw-striped-io", "Future work: MPI-I/O striped reads", "repro.experiments.futurework", "run_striped_io"),
        Experiment("fig-butterfly", "Distributed Butterfly deal strategies", "repro.experiments.fig_butterfly"),
        Experiment("fig-jellyfish", "Distributed Jellyfish k-mer counting scaling", "repro.experiments.fig_jellyfish"),
        Experiment("fig-chrysalis", "Fused Chrysalis back end vs serial middle", "repro.experiments.fig_chrysalis"),
        Experiment("fig-inchworm", "Distributed Inchworm component partitioning", "repro.experiments.fig_inchworm"),
    ]
}


#: Experiments that assemble miniature datasets repeatedly: ``all`` and
#: the report run them only when asked.
SLOW = {"fig04", "fig05_06"}


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}") from None


def run_experiment(exp_id: str, **kwargs: Any) -> Any:
    """Run an experiment by id with its default parameters."""
    return get_experiment(exp_id).load()(**kwargs)
