"""Host wall-clock runner for the Inchworm extension-kernel workload.

Three measurements per entry, all on the same k-mer table (sugarbeet-mini
by default — the paper's timing-benchmark dataset):

* **kernel rows** — the per-dispatch cost of resolving ``B`` growing
  ends' 4-candidate probes: the seed per-kmer loop (one scalar
  ``_best_extension`` per end, 4 canon + 4 binary searches each) versus
  one batched ``probe_extensions`` + ``select_extensions`` call over all
  ``B`` ends.  ``speedup`` at the reference width (``B = 64``) is the
  number the acceptance criterion tracks: the batched probe amortises
  numpy's fixed dispatch cost over the whole lockstep, so it grows with
  ``B``.
* **end-to-end rows** — host wall-clock of a full assembly under the
  serial reference loop and under the component kernel (one-rank
  ``mpi_inchworm``: component labelling, one lockstep across all
  components, keyed merge).  The lockstep is as wide as there are
  unfinished components and hands the last few long walks to the scalar
  probe, so the end-to-end gain is bounded by the largest components.
* **thread rows** — the simulated OpenMP team's virtual makespan and
  speedup for each requested thread count.  A component is indivisible
  across threads, so the thread holding the giant component is the floor.

Usage (append a labeled entry to the checked-in history)::

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
    _best_extension,
    inchworm_assemble,
    probe_extensions,
    select_extensions,
)
from repro.trinity.jellyfish import jellyfish_count
from repro.util.rng import derive_seed

WORKLOAD = "sugarbeet-mini"
ASSEMBLY_K = 25
MIN_KMER_COUNT = 2
#: Lockstep widths of the kernel rows; 64 is the acceptance criterion's
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


def kernel_points(counts, batches=KERNEL_BATCHES, repeat: int = 5) -> List[Dict]:
    """Per-dispatch cost of B scalar probes vs one batched call over B ends.

    The ends are real k-mers drawn deterministically from the filtered
    table, probed rightward against it — the same lookup mix the
    kernel's lockstep issues.  Each timing loops the dispatch enough to
    dominate timer resolution; best-of-``repeat`` shaves host noise.
    """
    filtered = counts.index.filtered(MIN_KMER_COUNT)
    salt = derive_seed(InchwormConfig().seed, "inchworm-ties")
    rng = np.random.default_rng(0)
    used = np.zeros(len(filtered), dtype=bool)  # empty: pure probe cost, no blocking
    points: List[Dict] = []
    for batch in batches:
        ends = rng.choice(filtered.codes, size=batch, replace=False).astype(np.uint64)
        end_list = [int(c) for c in ends.tolist()]
        loops = max(1, 4096 // batch)

        def serial_dispatch():
            for _ in range(loops):
                for c in end_list:
                    _best_extension(filtered, True, used, c, salt, right=True)

        def batched_dispatch():
            for _ in range(loops):
                probe = probe_extensions(filtered, ends, right=True, salt=salt)
                select_extensions(probe, ~probe.found)

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
            f"kernel  B={batch:>4}  serial={serial_us:9.1f}us  "
            f"batched={batched_us:8.1f}us  speedup={serial_us / batched_us:5.1f}x"
        )
    return points


def one_rank(counts, cfg: InchwormConfig, n_threads: int = 1):
    """The component kernel as the pipeline runs it: ``mpi_inchworm`` on one rank."""
    return mpirun(
        mpi_inchworm, 1, InchwormInputs(counts=counts),
        InchwormStageConfig(inchworm=cfg, n_threads=n_threads),
    )


def end_to_end_points(counts, repeat: int = 3) -> List[Dict]:
    """Full-assembly wall clock: serial reference loop vs component kernel."""
    cfg = InchwormConfig(min_kmer_count=MIN_KMER_COUNT)
    serial = inchworm_assemble(counts, cfg)
    if one_rank(counts, cfg).outputs[0].outputs.contigs != serial:
        raise RuntimeError("component kernel diverged from serial inchworm_assemble")
    serial_s = _best_of(lambda: inchworm_assemble(counts, cfg), repeat)
    batched_s = _best_of(lambda: one_rank(counts, cfg), repeat)
    points = [
        {"mode": "end_to_end_serial", "wall_s": round(serial_s, 3)},
        {
            "mode": "end_to_end_batched",
            "wall_s": round(batched_s, 3),
            "speedup": round(serial_s / batched_s, 2),
        },
    ]
    print(
        f"end-to-end  serial={serial_s:6.3f}s  component-kernel={batched_s:6.3f}s  "
        f"speedup={serial_s / batched_s:4.2f}x"
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
            "serial_us": "one scalar _best_extension probe per end, x batch",
            "batched_us": "one probe_extensions+select_extensions dispatch",
            "speedup": "serial/batched at the row's width",
            "wall_s": "host wall-clock of a full assembly",
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
