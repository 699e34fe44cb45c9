"""Host wall-clock runner for the fused Chrysalis back end.

The fused stage (:mod:`repro.parallel.mpi_chrysalis_backend`) runs the
whole orient → build → quantify → walk chain per component on its owner
rank, so the back end scales with the rank count instead of sitting on
the front-end node.  This runner times it on the smoke workload (real
pipeline front end: jellyfish → inchworm → bowtie-less GFF → RTT) at 1
and 8 ranks, per deal strategy:

* ``wall_s`` — host wall-clock of the simulated mpirun;
* ``virtual_makespan_s`` — the modelled cluster runtime (slowest rank);

plus one ``speedup`` row: 1-rank over 8-rank virtual makespan (matching
round-robin deals, the driver default).  Transcripts and quant stats are
checked identical to the serial ``fasta_to_debruijn`` + ``quantify_graph``
+ ``butterfly_assemble`` chain on every run, so the history is a pure
like-for-like record.  (Entries up to PR 11 also carry a ``prefusion``
point and a ``prefusion_over_fused`` gain — the serial middle followed by
the since-retired standalone distributed Butterfly; they stay as
history and are no longer re-measured.)

Usage (append a labeled entry to the checked-in history)::

    PYTHONPATH=src python -m benchmarks.chrysalis_bench_runner \
        --label my-change --out BENCH_chrysalis.json
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.common import bench_parser
from repro.mpi import mpirun
from repro.parallel.component_stage import STRATEGIES
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendInputs,
    ChrysalisBackendStageConfig,
    mpi_chrysalis_backend,
)

NPROCS_SWEEP = (1, 8)
SPEEDUP_NPROCS = 8
#: One enumeration thread per rank, like the Butterfly bench: spare
#: threads would collapse each rank's time to its max component and hide
#: the component-parallel scaling this bench exists to measure.
NTHREADS = 1


def build_workload(seed: int = 0):
    """The smoke pipeline front end, run for real.

    Returns ``(tcfg, reads, contigs, components, assignments, counts)`` —
    everything both back-end paths consume, produced by the same serial
    stages the driver would run before them.
    """
    from repro.simdata import get_recipe
    from repro.simdata.reads import flatten_reads
    from repro.trinity import TrinityConfig
    from repro.trinity.chrysalis.graph_from_fasta import graph_from_fasta
    from repro.trinity.chrysalis.reads_to_transcripts import reads_to_transcripts
    from repro.trinity.inchworm import inchworm_assemble
    from repro.trinity.jellyfish import jellyfish_count

    tcfg = TrinityConfig(seed=1)
    _txome, pairs = get_recipe("smoke").materialize(seed=1 + seed)
    reads = flatten_reads(pairs)
    counts = jellyfish_count(reads, tcfg.k)
    contigs = inchworm_assemble(counts, tcfg.inchworm())
    gff = graph_from_fasta(contigs, reads, tcfg.gff())
    assignments = reads_to_transcripts(reads, contigs, gff.components, tcfg.rtt())
    return tcfg, reads, contigs, gff.components, assignments, counts


def serial_reference(tcfg, reads, contigs, components, assignments, counts):
    """The serial chain the fused stage must reproduce: (quants, transcripts)."""
    from repro.trinity.butterfly import butterfly_assemble
    from repro.trinity.chrysalis.debruijn import fasta_to_debruijn
    from repro.trinity.chrysalis.orient import orient_component
    from repro.trinity.chrysalis.quantify import quantify_graph

    graphs = {
        comp.id: fasta_to_debruijn(
            orient_component([contigs[m].seq for m in comp.members], tcfg.weld_k),
            tcfg.k,
        )
        for comp in components
    }
    quants = quantify_graph(
        graphs, list(reads), assignments,
        kmer_counts=counts, min_kmer_count=tcfg.min_kmer_count,
    )
    return quants, butterfly_assemble(graphs, tcfg.butterfly())


def fused_inputs(reads, contigs, components, assignments, counts):
    return ChrysalisBackendInputs(
        contigs=contigs, reads=reads, components=components,
        assignments=assignments, counts=counts,
    )


def fused_config(tcfg, strategy: str) -> ChrysalisBackendStageConfig:
    return ChrysalisBackendStageConfig(
        k=tcfg.k, weld_k=tcfg.weld_k, min_kmer_count=tcfg.min_kmer_count,
        butterfly=tcfg.butterfly(), nthreads=NTHREADS, strategy=strategy,
    )


def run_points(seed: int = 0, repeat: int = 3) -> List[Dict[str, float]]:
    """Time the fused stage per strategy and rank count: the best wall
    and, separately, the best virtual makespan of ``repeat`` launches (a
    launch is 10-40 ms of thread time since PR 18, and one pass of the
    cyclic collector — charged to whichever rank thread allocated — is
    10-20 ms)."""
    tcfg, *workload = build_workload(seed)
    quants, serial_transcripts = serial_reference(tcfg, *workload)
    inputs = fused_inputs(*workload)
    points: List[Dict[str, float]] = []
    virtual: Dict[tuple, float] = {}
    for strategy in STRATEGIES:
        config = fused_config(tcfg, strategy)
        for nprocs in NPROCS_SWEEP:
            wall = run = None
            for _rep in range(max(repeat, 1)):
                t0 = time.perf_counter()
                rep = mpirun(mpi_chrysalis_backend, nprocs, inputs, config)
                rep_wall = time.perf_counter() - t0
                wall = rep_wall if wall is None else min(wall, rep_wall)
                out = rep.outputs[0]
                if out.transcripts != serial_transcripts:
                    raise RuntimeError(
                        f"fused {strategy!r} @{nprocs} diverged from the serial chain"
                    )
                if any(
                    out.quant_stats[cid] != (q.n_reads, q.read_edge_weight)
                    for cid, q in quants.items()
                ):
                    raise RuntimeError(
                        f"fused {strategy!r} @{nprocs} quant stats diverged"
                    )
                if run is None or rep.makespan < run.makespan:
                    run = rep
            virtual[strategy, nprocs] = run.makespan
            points.append(
                {
                    "mode": "fused",
                    "strategy": strategy,
                    "nprocs": nprocs,
                    "wall_s": round(wall, 6),
                    "virtual_makespan_s": round(run.makespan, 6),
                }
            )
            print(
                f"fused ({strategy:<11}) nprocs={nprocs}  wall={wall:.4f}s  "
                f"virtual_makespan={run.makespan:.4f}s"
            )
    speedup = virtual["round_robin", 1] / virtual["round_robin", SPEEDUP_NPROCS]
    points.append(
        {"mode": "speedup", "nprocs": SPEEDUP_NPROCS, "serial_over_mpi": round(speedup, 3)}
    )
    print(f"speedup  1-rank/{SPEEDUP_NPROCS}-rank virtual (round_robin) = {speedup:.2f}x")
    return points


def append_entry(out: Path, label: str, points: List[Dict[str, float]]) -> None:
    from benchmarks.conftest import append_bench_entry

    append_bench_entry(
        out,
        bench="chrysalis_backend_wallclock",
        workload=(
            f"smoke recipe front end (jellyfish->inchworm->gff->rtt), "
            f"nthreads={NTHREADS}"
        ),
        fields={
            "wall_s": "host wall-clock of the fused simulated mpirun",
            "virtual_makespan_s": (
                "fused stage modelled cluster runtime; best of --repeat "
                "launches from PR 18 on, the last launch before"
            ),
            "serial_over_mpi": "1-rank / 8-rank fused virtual makespan",
        },
        label=label,
        points=points,
    )


def run_cli(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``python -m`` and ``repro bench chrysalis``."""
    ap = bench_parser(__doc__.splitlines()[0], Path("BENCH_chrysalis.json"))
    args = ap.parse_args(argv)
    append_entry(args.history, args.label, run_points(seed=args.seed, repeat=args.repeat))
    return 0


if __name__ == "__main__":
    raise SystemExit(run_cli())
