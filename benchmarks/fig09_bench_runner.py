"""Host wall-clock runner for the fig09 RTT workload under real ``mpirun``.

The pytest benches replay the *analytic* Figure-9 scaling model; this
runner times the actual simulated-MPI execution (thread-per-rank) of
:func:`repro.parallel.mpi_reads_to_transcripts.mpi_reads_to_transcripts`
on the whitefly-mini workload, recording both numbers that matter:

* ``wall_s`` — host wall-clock of the simulation itself.  This is what
  the batched sorted-array kernel attacked: the per-read loop it replaced
  probed a Python dict once per k-mer position of every read on every
  rank.
* ``virtual_makespan_s`` — the modelled cluster runtime (slowest rank's
  virtual clock), which must stay nprocs-faithful regardless of how fast
  the host happens to run the simulation.

The runner measures the path the driver runs — the batched kernel, with
the final all-ranks pooling.  The history's per-read rows and its first
batched row (taken without the pooling step) were measured through
selectors the stage no longer has; they stay as the record of why the
batched kernel is the only one.

Usage (append a labeled entry to the checked-in history)::

    PYTHONPATH=src python -m benchmarks.fig09_bench_runner \
        --label my-change --nprocs 1 8 --out BENCH_fig09.json
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.common import bench_parser
from repro.mpi import mpirun
from repro.parallel.mpi_reads_to_transcripts import (
    RttInputs,
    RttStageConfig,
    mpi_reads_to_transcripts,
)
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig, graph_from_fasta
from repro.trinity.chrysalis.reads_to_transcripts import ReadsToTranscriptsConfig
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count

WORKLOAD = "whitefly-mini"
ASSEMBLY_K = 25
WELD_K = 24
RTT_K = 25
MAX_MEM_READS = 1000
NTHREADS = 16


def build_inputs(seed: int = 0):
    """Deterministic bench inputs: whitefly-mini reads, contigs, components."""
    _txome, pairs = get_recipe(WORKLOAD).materialize(seed=seed)
    reads = flatten_reads(pairs)
    counts = jellyfish_count(reads, ASSEMBLY_K)
    contigs = inchworm_assemble(counts, InchwormConfig(seed=1))
    gff = graph_from_fasta(contigs, reads, GraphFromFastaConfig(k=WELD_K))
    return reads, contigs, gff.components


def run_points(
    nprocs_list: List[int], repeat: int = 1, seed: int = 0
) -> List[Dict[str, float]]:
    """Time one mpirun of the RTT stage per requested rank count
    (best wall of ``repeat`` runs, to shave host noise off the history).

    Measures the stage as the driver launches it: per-rank part files in
    a scratch ``workdir`` concatenated by the master (Figure 9 includes
    the ``cat`` step), then the pooled table on every rank.
    """
    reads, contigs, components = build_inputs(seed=seed)
    inputs = RttInputs(reads=reads, contigs=contigs, components=components)
    cfg = ReadsToTranscriptsConfig(k=RTT_K, max_mem_reads=MAX_MEM_READS)
    points: List[Dict[str, float]] = []
    for nprocs in nprocs_list:
        wall = None
        for _rep in range(max(repeat, 1)):
            with tempfile.TemporaryDirectory(prefix="fig09_rtt_") as wd:
                config = RttStageConfig(rtt=cfg, nthreads=NTHREADS, workdir=wd)
                t0 = time.perf_counter()
                run = mpirun(mpi_reads_to_transcripts, nprocs, inputs, config)
                rep_wall = time.perf_counter() - t0
            wall = rep_wall if wall is None else min(wall, rep_wall)
        points.append(
            {
                "nprocs": nprocs,
                "wall_s": round(wall, 3),
                "virtual_makespan_s": round(run.makespan, 6),
            }
        )
        print(
            f"nprocs={nprocs:>3}  wall={wall:8.3f}s  "
            f"virtual_makespan={run.makespan:.4f}s"
        )
    return points


def append_entry(out: Path, label: str, points: List[Dict[str, float]]) -> None:
    from benchmarks.conftest import append_bench_entry

    append_bench_entry(
        out,
        bench="fig09_rtt_wallclock",
        workload=(
            f"{WORKLOAD}, ReadsToTranscriptsConfig(k={RTT_K}, "
            f"max_mem_reads={MAX_MEM_READS}), nthreads={NTHREADS}"
        ),
        fields={
            "wall_s": "host wall-clock of the simulated mpirun",
            "virtual_makespan_s": "modelled cluster runtime (slowest rank)",
        },
        label=label,
        points=points,
    )


def run_cli(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``python -m`` and ``repro bench rtt``."""
    ap = bench_parser(__doc__.splitlines()[0], Path("BENCH_fig09.json"))
    ap.add_argument("--nprocs", type=int, nargs="+", default=[1, 8])
    args = ap.parse_args(argv)
    append_entry(
        args.history, args.label,
        run_points(args.nprocs, repeat=args.repeat, seed=args.seed),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(run_cli())
