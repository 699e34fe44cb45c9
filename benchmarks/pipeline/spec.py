"""The benchmark's declaration: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root is :func:`manifest` written
out; ``test_pipeline_bench.py`` asserts the two stay equal and that a run
emits exactly these names.  Later issues name their claim as
``<metric>`` on ``<workload>`` from these tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.simdata.datasets import DatasetRecipe

#: ``--seconds`` the driver passes; also the default of the CLI.
RUN_SECONDS = 20

#: Seed of ``DatasetRecipe.materialize``: every ``--seed`` sees the same
#: read *library*.  ``--seed`` shuffles the pair order and feeds
#: ``TrinityConfig(seed)`` (README, "What --seed varies").
LIBRARY_SEED = 0

#: One paper node's OpenMP team (simulated; no host threads).
NTHREADS = 16

#: Restart runs after each cold checkpointed run.
RESTARTS = 5

#: The repository's miniatures (``whitefly-mini`` 40 genes / 4 200 reads,
#: ``sugarbeet-mini`` 120 genes at 8 000 reads) cut to a half / a third,
#: so that one pinned 8-rank run takes ~2 s and a 20 s measurement holds
#: several.  Benchmark-owned literals: edits to
#: ``repro.simdata.datasets._RECIPES`` cannot move them.
WHITEFLY = DatasetRecipe(name="whitefly-half", n_genes=20, n_reads=2100)
SUGARBEET = DatasetRecipe(
    name="sugarbeet-third", n_genes=40, n_reads=2700,
    paired_fraction=0.61, expression_sigma=1.2,
)


#: Input of the calibration probe: one driver run on it takes ~45 ms on
#: one rank and ~110 ms on eight (README, "Why timings are calibrated").
PROBE = DatasetRecipe(name="probe", n_genes=1, n_reads=120)

#: Probes in one burst: after set-up and before and after every timed run.
PROBES_PER_GAP = 3


@dataclass(frozen=True)
class Workload:
    """One set of inputs and one driver configuration."""

    name: str
    why: str
    recipe: DatasetRecipe
    nprocs: int
    strategy: str = "round_robin"
    inchworm_threads: int = 1
    #: Run with ``workdir=`` and ``checkpoint_dir=`` on a fresh directory,
    #: each cold run followed by :data:`RESTARTS` restart runs.
    files: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "whitefly-1r",
        "one-node baseline: mpirun's no-thread path, only kernels and stage bodies run; "
        "deal, collective and launcher changes are predicted not to move it",
        WHITEFLY, nprocs=1,
    ),
    Workload(
        "whitefly-8r",
        "same reads on 8 ranks: replicated per-rank work, collectives and 8 GIL-serialised "
        "rank threads dominate; kernel-only changes move it less than whitefly-1r",
        WHITEFLY, nprocs=8,
    ),
    Workload(
        "sugarbeet-4r-dyn",
        "many skewed components and 39% unpaired reads on 4 ranks: the LPT deal and the "
        "threaded speculative Inchworm engine do work the whitefly workloads barely touch",
        SUGARBEET, nprocs=4, strategy="dynamic", inchworm_threads=4,
    ),
    Workload(
        "whitefly-4r-ckpt",
        "4 ranks writing part files, merged outputs and six checkpoints, then restarting "
        "from them: an I/O or checkpoint-key change shows here and on no in-memory workload",
        WHITEFLY, nprocs=4, files=True,
    ),
)


def workload(name: str) -> Workload:
    for wl in WORKLOADS:
        if wl.name == name:
            return wl
    raise KeyError(f"unknown workload {name!r}; known: {[w.name for w in WORKLOADS]}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: ``measured`` (host clock / OS counter), ``modelled`` (virtual
    #: clocks of the simulated cluster) or ``count`` (repeats exactly).
    label: str
    bound: Optional[float] = None  # end-to-end only
    #: How one invocation reduces its samples: ``median``, or
    #: ``calibrated_median`` for timings — each sample first scaled by the
    #: fastest calibration probe over the probes taken beside it (README,
    #: "Why timings are calibrated").
    stat: str = "median"


#: Unit of every modelled time.  ``BENCHMARK.json`` has no label field, so
#: the unit is where it says "seconds on the simulated cluster's virtual
#: clocks, not host seconds" (ROADMAP: modelled marked beside measured).
VIRTUAL_S = "s_virtual"

END_TO_END: Tuple[Metric, ...] = (
    Metric("host_wall_s", "s", "lower", "measured", 0.25, stat="calibrated_median"),
    Metric("virtual_makespan_s", VIRTUAL_S, "lower", "modelled", 0.25, stat="calibrated_median"),
    Metric("peak_rss_mb", "MB", "lower", "measured", 0.15),
    Metric("setup_s", "s", "lower", "measured", 0.25, stat="calibrated_median"),
)

#: ``STAGES`` registry name -> (the driver's monitor stage, the label
#: prefix of its ``comm.region``s, the regions a fault-free run emits).
STAGE_LAYERS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "jellyfish": ("jellyfish[mpi]", "jellyfish", ("count", "exchange", "merge", "gather")),
    "inchworm": ("inchworm[mpi]", "inchworm", ("components", "deal", "assemble", "merge")),
    "bowtie": ("chrysalis.bowtie[mpi]", "bowtie", ("split", "align", "merge")),
    "gff": (
        "chrysalis.graph_from_fasta[mpi]", "gff",
        ("setup", "loop1", "weld_index", "loop2", "components"),
    ),
    "rtt": ("chrysalis.reads_to_transcripts[mpi]", "rtt", ("setup", "loop")),
    "chrysalis-backend": ("chrysalis.backend[mpi]", "chrysalis", ("deal", "loop", "merge")),
}

#: Serial ``TrinityPipeline`` monitor stage -> ``kernel.<name>_s``.
KERNELS: Dict[str, str] = {
    "jellyfish": "jellyfish",
    "inchworm": "inchworm",
    "chrysalis.bowtie": "bowtie",
    "chrysalis.graph_from_fasta": "graph_from_fasta",
    "chrysalis.fasta_to_debruijn": "fasta_to_debruijn",
    "chrysalis.reads_to_transcripts": "reads_to_transcripts",
    "chrysalis.quantify_graph": "quantify_graph",
    "butterfly": "butterfly",
}

_PER_STAGE = (
    ("host_wall_s", "s", "lower", "measured"),
    ("makespan_s", VIRTUAL_S, "lower", "modelled"),
    ("compute_s", VIRTUAL_S, "lower", "modelled"),
    ("wait_s", VIRTUAL_S, "lower", "modelled"),
    ("comm_s", VIRTUAL_S, "lower", "modelled"),
    ("serial_s", VIRTUAL_S, "lower", "modelled"),
    ("imbalance", "x", "lower", "modelled"),
    ("rank_compute_sum_s", VIRTUAL_S, "lower", "modelled"),
    ("sim_overhead_s", "s", "lower", "measured"),
    ("bytes_sent", "bytes", "lower", "count"),
    ("n_collectives", "count", "lower", "count"),
)


def _per_layer() -> Tuple[Metric, ...]:
    out: List[Metric] = []
    for stage, (_monitor, _prefix, regions) in STAGE_LAYERS.items():
        out += [Metric(f"{stage}.{suffix}", *rest) for suffix, *rest in _PER_STAGE]
        out += [
            Metric(f"{stage}.phase.{r}_s", VIRTUAL_S, "lower", "modelled") for r in regions
        ]
    out += [Metric(f"kernel.{k}_s", "s", "lower", "measured") for k in KERNELS.values()]
    out += [
        Metric("pipeline.host_wall_s", "s", "lower", "measured"),
        Metric("pipeline.glue_s", "s", "lower", "measured"),
        Metric("pipeline.traced_virtual_makespan_s", VIRTUAL_S, "lower", "modelled"),
        Metric("pipeline.serial_fraction", "frac", "lower", "modelled"),
        Metric("pipeline.virtual_speedup", "x", "higher", "modelled"),
        Metric("pipeline.n_kmers", "count", "lower", "count"),
        Metric("pipeline.n_contigs", "count", "lower", "count"),
        Metric("pipeline.n_components", "count", "lower", "count"),
        Metric("pipeline.n_transcripts", "count", "lower", "count"),
        Metric("sim.unpinned_host_wall_s", "s", "lower", "measured"),
        Metric("sim.unpinned_virtual_makespan_s", VIRTUAL_S, "lower", "modelled"),
        Metric("sim.clock_inflation", "x", "lower", "modelled"),
        Metric("mpi.noop_launch_s", "s", "lower", "measured"),
        Metric("mpi.allgather_1mb_s", "s", "lower", "measured"),
        Metric("obs.trace_overhead_frac", "frac", "lower", "measured"),
        Metric("obs.chain_gap_s", "s", "lower", "measured"),
        Metric("io.overhead_s", "s", "lower", "measured"),
        Metric("checkpoint.restart_wall_s", "s", "lower", "measured"),
        Metric("checkpoint.restores", "count", "higher", "count"),
        Metric("checkpoint.bytes", "bytes", "lower", "count"),
        Metric("workdir.bytes", "bytes", "lower", "count"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def manifest() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.pipeline"],
        "paths": ["benchmarks/pipeline"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
