"""Host wall-clock runner for the Inchworm extension-step workload.

Three measurements per entry, all on the same k-mer table (sugarbeet-mini
by default — the paper's timing-benchmark dataset):

* **kernel rows** — the cost of one greedy extension step at ``B``
  growing ends: the per-step oracle (one scalar ``_best_extension`` of
  ``tests/reference_inchworm.py`` per end: 4 canon + 4 binary searches
  and a comparator loop each) versus the successor table's step (the
  first unused entry of the end's prebuilt preference row).  Until PR 20
  the second column timed one batched ``probe_extensions`` +
  ``select_extensions`` dispatch over the ``B`` ends — the lockstep the
  table replaced; the column keeps its name, ``fields`` says what it
  holds now, and its ``speedup`` no longer grows with ``B`` because a
  row lookup has no dispatch cost to amortise.
* **end-to-end rows** — host wall-clock of a full assembly under the
  per-step oracle loop, under ``inchworm_assemble`` (rows for every
  position, one walk over the global seed order) and under the component
  kernel as the pipeline runs it (one-rank ``mpi_inchworm``: probe,
  component labelling, owner-built rows, walks, keyed merge).
* **thread rows** — the simulated OpenMP team's virtual makespan and
  speedup for each requested thread count.  A component is indivisible
  across threads, so the thread holding the giant component is the floor.

Usage (append a labeled entry to the checked-in history; run from the
repository root, the oracle lives under ``tests/``)::

    PYTHONPATH=src python -m benchmarks.inchworm_bench_runner \
        --label my-change --out BENCH_inchworm.json
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from benchmarks.common import bench_parser
from repro.mpi import mpirun
from repro.parallel.mpi_inchworm import (
    InchwormInputs,
    InchwormStageConfig,
    mpi_inchworm,
)
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity.inchworm import (
    InchwormConfig,
    inchworm_assemble,
    neighbours,
    preference_rows,
)
from repro.trinity.jellyfish import jellyfish_count
from repro.util.rng import derive_seed
from tests import reference_inchworm

WORKLOAD = "sugarbeet-mini"
ASSEMBLY_K = 25
MIN_KMER_COUNT = 2
#: Growing ends stepped per kernel row; 64 is the acceptance criterion's
#: "bench reference size".
KERNEL_BATCHES = (16, 64, 256)


def build_counts(seed: int = 0):
    """Deterministic bench input: the sugarbeet-mini k-mer table."""
    _txome, pairs = get_recipe(WORKLOAD).materialize(seed=seed)
    reads = flatten_reads(pairs)
    return jellyfish_count(reads, ASSEMBLY_K)


def _best_of(fn, repeat: int) -> float:
    best = None
    for _ in range(max(repeat, 1)):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def table_step(rows, used, states) -> None:
    """One rightward table step at each of ``states``: the walk's inner
    loop (:func:`repro.trinity.inchworm.walk`) without the bookkeeping."""
    for cur in states:
        for nxt in rows[cur << 3 : (cur << 3) + 4]:
            if nxt < 0 or not used[nxt >> 1]:
                break


def kernel_points(counts, batches=KERNEL_BATCHES, repeat: int = 5) -> List[Dict]:
    """Cost of one extension step at B ends: per-step oracle vs table row.

    The ends are real k-mers drawn deterministically from the filtered
    table and stepped rightward against it with nothing used — the
    oracle searches and compares, the table reads the first entry of a
    prebuilt row.  Each timing loops the batch enough to dominate timer
    resolution; best-of-``repeat`` shaves host noise.
    """
    filtered = counts.index.filtered(MIN_KMER_COUNT)
    salt = derive_seed(InchwormConfig().seed, "inchworm-ties")
    rng = np.random.default_rng(0)
    used = np.zeros(len(filtered), dtype=bool)  # empty: pure step cost, no blocking
    rows = memoryview(
        preference_rows(
            filtered, True, salt, neighbours(filtered), np.arange(len(filtered))
        ).reshape(-1)
    )
    unused = bytearray(len(filtered))
    points: List[Dict] = []
    for batch in batches:
        at = rng.choice(len(filtered), size=batch, replace=False)
        end_list = filtered.codes[at].tolist()
        states = (at << 1).tolist()  # the stored orientation of each end
        loops = max(1, 4096 // batch)

        def serial_dispatch():
            for _ in range(loops):
                for c in end_list:
                    reference_inchworm._best_extension(
                        filtered, True, used, c, salt, right=True
                    )

        def batched_dispatch():
            for _ in range(loops):
                table_step(rows, unused, states)

        serial_us = _best_of(serial_dispatch, repeat) / loops * 1e6
        batched_us = _best_of(batched_dispatch, repeat) / loops * 1e6
        points.append(
            {
                "mode": "kernel",
                "batch": batch,
                "serial_us": round(serial_us, 2),
                "batched_us": round(batched_us, 2),
                "speedup": round(serial_us / batched_us, 2),
            }
        )
        print(
            f"kernel  B={batch:>4}  oracle={serial_us:9.1f}us  "
            f"table={batched_us:8.1f}us  speedup={serial_us / batched_us:5.1f}x"
        )
    return points


def one_rank(counts, cfg: InchwormConfig, n_threads: int = 1):
    """The component kernel as the pipeline runs it: ``mpi_inchworm`` on one rank."""
    return mpirun(
        mpi_inchworm, 1, InchwormInputs(counts=counts),
        InchwormStageConfig(inchworm=cfg, n_threads=n_threads),
    )


def end_to_end_points(counts, repeat: int = 3) -> List[Dict]:
    """Full-assembly wall clock: oracle loop, table assembler, component kernel."""
    cfg = InchwormConfig(min_kmer_count=MIN_KMER_COUNT)
    serial = inchworm_assemble(counts, cfg)
    if reference_inchworm.inchworm_assemble(counts, cfg) != serial:
        raise RuntimeError("inchworm_assemble diverged from the per-step oracle")
    if one_rank(counts, cfg).outputs[0].outputs.contigs != serial:
        raise RuntimeError("component kernel diverged from serial inchworm_assemble")
    oracle_s = _best_of(lambda: reference_inchworm.inchworm_assemble(counts, cfg), repeat)
    serial_s = _best_of(lambda: inchworm_assemble(counts, cfg), repeat)
    batched_s = _best_of(lambda: one_rank(counts, cfg), repeat)
    points = [
        {"mode": "end_to_end_oracle", "wall_s": round(oracle_s, 3)},
        {
            "mode": "end_to_end_serial",
            "wall_s": round(serial_s, 3),
            "speedup": round(oracle_s / serial_s, 2),
        },
        {
            "mode": "end_to_end_batched",
            "wall_s": round(batched_s, 3),
            "speedup": round(oracle_s / batched_s, 2),
        },
    ]
    print(
        f"end-to-end  oracle={oracle_s:6.3f}s  inchworm_assemble={serial_s:6.3f}s  "
        f"component-kernel={batched_s:6.3f}s"
    )
    return points


def thread_points(counts, thread_counts=(1, 2, 4, 8)) -> List[Dict]:
    """Simulated-team virtual makespan per thread count."""
    cfg = InchwormConfig(min_kmer_count=MIN_KMER_COUNT)
    points: List[Dict] = []
    for t in thread_counts:
        rank = one_rank(counts, cfg, n_threads=t).outputs[0]
        makespan = rank.metrics["team_makespan_s"]
        speedup = rank.metrics["team_serial_s"] / makespan if makespan > 0 else 1.0
        points.append(
            {
                "mode": "threads",
                "n_threads": t,
                "virtual_makespan_s": round(makespan, 6),
                "team_speedup": round(speedup, 3),
                "n_contigs": len(rank.outputs.contigs),
            }
        )
        print(
            f"threads T={t}  virtual_makespan={makespan:8.4f}s  "
            f"team_speedup={speedup:5.2f}x  contigs={len(rank.outputs.contigs)}"
        )
    return points


def append_entry(out: Path, label: str, points: List[Dict]) -> None:
    from benchmarks.conftest import append_bench_entry

    append_bench_entry(
        out,
        bench="inchworm_extension_kernel",
        workload=f"{WORKLOAD}, k={ASSEMBLY_K}, min_kmer_count={MIN_KMER_COUNT}",
        fields={
            "serial_us": "one scalar _best_extension step per end, x batch "
            "(since PR20 the oracle in tests/reference_inchworm.py)",
            "batched_us": "until PR16: one probe_extensions+select_extensions dispatch "
            "over the batch; from PR20: one successor-table step (first unused "
            "entry of the prebuilt preference row) per end, x batch",
            "speedup": "kernel rows: serial/batched at the row's width; end-to-end "
            "rows: until PR16 serial loop / that row, from PR20 oracle loop / that row",
            "wall_s": "host wall-clock of a full assembly (end_to_end_oracle: the "
            "per-step loop; end_to_end_serial: inchworm_assemble; "
            "end_to_end_batched: one-rank mpi_inchworm)",
            "virtual_makespan_s": "simulated thread team makespan",
            "team_speedup": "serial_time/makespan on the virtual clocks",
        },
        label=label,
        points=points,
    )


def run_cli(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``python -m`` and ``repro bench inchworm``."""
    ap = bench_parser(__doc__.splitlines()[0], Path("BENCH_inchworm.json"))
    ap.add_argument(
        "--threads", type=int, nargs="+", default=[1, 2, 4, 8],
        help="simulated thread counts for the makespan rows",
    )
    ap.add_argument(
        "--skip-end-to-end", action="store_true",
        help="record only kernel + thread rows (fast)",
    )
    args = ap.parse_args(argv)
    counts = build_counts(seed=args.seed)
    points = kernel_points(counts, repeat=max(args.repeat, 3))
    if not args.skip_end_to_end:
        points += end_to_end_points(counts, repeat=args.repeat)
    points += thread_points(counts, thread_counts=args.threads)
    append_entry(args.history, args.label, points)
    return 0


if __name__ == "__main__":
    raise SystemExit(run_cli())
