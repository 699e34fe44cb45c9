"""Host wall-clock runner for the distributed component-partitioned Inchworm.

The distributed stage of :func:`repro.parallel.mpi_inchworm.mpi_inchworm`
probes the filtered k-mer table once (dealt in position blocks), labels
the connected components of its overlap graph, deals them across ranks
by count mass, has each rank build successor rows for its own
components and walk them, charged to a per-rank thread team, and merges
the keyed contig strings back into the exact global seed order.  This runner times
the stage on the whitefly miniature at a sweep of rank counts, with the
per-rank thread team fixed at the driver's front-end width — so the
1-rank point *is* the one-node threaded baseline, and the sweep shows
what moving the same work onto ranks buys.  A component is indivisible
across threads *and* ranks, so both ends of the sweep sit on the giant
component's floor and the ratio stays modest.  Per point:

* ``wall_s`` — host wall-clock of the simulated mpirun;
* ``virtual_makespan_s`` — the modelled cluster runtime (slowest rank's
  virtual clock), where the decomposition actually shows.

plus one ``speedup`` row: 1-rank over 8-rank virtual makespan.  Every
sweep run is checked byte-for-byte against serial ``inchworm_assemble``
— the stage's acceptance invariant at any rank and thread count — so the
history is a pure like-for-like scaling record.

Usage (append a labeled entry to the checked-in history)::

    PYTHONPATH=src python -m benchmarks.inchworm_mpi_bench_runner \
        --label my-change --out BENCH_inchworm_mpi.json
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.common import bench_parser
from repro.mpi import mpirun
from repro.parallel.mpi_inchworm import (
    InchwormInputs,
    InchwormStageConfig,
    mpi_inchworm,
)
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig
from repro.trinity.inchworm import inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count

NPROCS_SWEEP = (1, 3, 8)
SPEEDUP_NPROCS = 8
#: Threads per rank in the sweep: the front-end node's team width, so
#: the 1-rank point reproduces the pre-distribution baseline.
N_THREADS = 4


def build_counts(seed: int = 0):
    """The whitefly miniature's Jellyfish counter (the stage's input)."""
    tcfg = TrinityConfig(seed=seed)
    _txome, pairs = get_recipe("whitefly-mini").materialize(seed=seed)
    counts = jellyfish_count(flatten_reads(pairs), tcfg.k)
    return counts, tcfg


def run_points(seed: int = 0, repeat: int = 3) -> List[Dict[str, float]]:
    """Time one mpirun per rank count (best wall of ``repeat`` runs)."""
    counts, tcfg = build_counts(seed=seed)
    inputs = InchwormInputs(counts=counts)
    points: List[Dict[str, float]] = []
    virtual: Dict[int, float] = {}
    serial = inchworm_assemble(counts, tcfg.inchworm())
    for nprocs in NPROCS_SWEEP:
        config = InchwormStageConfig(inchworm=tcfg.inchworm(), n_threads=N_THREADS)
        wall = None
        for _rep in range(max(repeat, 1)):
            t0 = time.perf_counter()
            run = mpirun(mpi_inchworm, nprocs, inputs, config)
            rep_wall = time.perf_counter() - t0
            wall = rep_wall if wall is None else min(wall, rep_wall)
        out = run.outputs[0].outputs
        if out.contigs != serial:
            raise RuntimeError(
                f"nprocs={nprocs} diverged from serial inchworm_assemble: "
                "neither the deal nor the threads may affect the output"
            )
        virtual[nprocs] = run.makespan
        points.append(
            {
                "mode": "scaling",
                "nprocs": nprocs,
                "n_threads": N_THREADS,
                "wall_s": round(wall, 3),
                "virtual_makespan_s": round(run.makespan, 6),
                "n_components": int(out.n_components),
                "n_contigs": len(out.contigs),
            }
        )
        print(
            f"nprocs={nprocs}  wall={wall:8.3f}s  "
            f"virtual_makespan={run.makespan:.4f}s  "
            f"components={out.n_components}  contigs={len(out.contigs)}"
        )
    speedup = virtual[1] / virtual[SPEEDUP_NPROCS]
    points.append(
        {
            "mode": "speedup",
            "nprocs": SPEEDUP_NPROCS,
            "front_end_over_mpi": round(speedup, 3),
        }
    )
    print(
        f"speedup  front-end-baseline/{SPEEDUP_NPROCS}-rank virtual = "
        f"{speedup:.2f}x  (serial identity: ok)"
    )
    return points


def append_entry(out: Path, label: str, points: List[Dict[str, float]]) -> None:
    from benchmarks.conftest import append_bench_entry

    append_bench_entry(
        out,
        bench="inchworm_mpi_scaling_wallclock",
        workload=f"whitefly-mini counter, k=25, {N_THREADS} threads/rank",
        fields={
            "wall_s": "host wall-clock of the simulated mpirun",
            "virtual_makespan_s": "modelled cluster runtime (slowest rank)",
            "n_components": "k-mer overlap-graph components dealt",
            "n_contigs": "merged contigs (invariant across the sweep)",
            "front_end_over_mpi": "1-rank threaded baseline / 8-rank virtual makespan",
        },
        label=label,
        points=points,
    )


def run_cli(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``python -m`` and ``repro bench inchworm-mpi``."""
    ap = bench_parser(__doc__.splitlines()[0], Path("BENCH_inchworm_mpi.json"))
    args = ap.parse_args(argv)
    append_entry(args.history, args.label, run_points(seed=args.seed, repeat=args.repeat))
    return 0


if __name__ == "__main__":
    raise SystemExit(run_cli())
