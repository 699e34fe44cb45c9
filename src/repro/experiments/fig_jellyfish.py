"""Distributed Jellyfish: deal → exchange → owner-merge scaling.

Not a reproduction of a paper figure — the paper keeps Jellyfish on the
big-memory node (Fig 11's "not recorded" front end) and flags its memory
appetite as the pipeline's wall (§II.A).  This experiment quantifies
what the distributed stage of :mod:`repro.parallel.mpi_jellyfish` buys:

* **Analytic sweep** — the sugarbeet-scale counting pass replayed
  through :func:`repro.parallel.scaling.simulate_jellyfish` at
  paper-scale node counts, splitting each point into count / exchange /
  merge / gather / resort.  The final allgather + re-sort replicate the
  whole table on every rank, so the speedup saturates — the stage's
  Amdahl floor, and the number to beat for any future sharded-table
  variant.
* **Real execution check** — the actual simulated-MPI stage on the
  whitefly miniature at 8 ranks, asserting the merged table *and* the
  dump-file bytes equal serial ``jellyfish_count`` exactly (the
  byte-identity invariant the integration suite also locks down), and
  reporting the measured virtual-clock speedup.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

import numpy as np

from repro.cluster.costmodel import CALIBRATION
from repro.mpi.launcher import mpirun
from repro.parallel.mpi_jellyfish import (
    JellyfishInputs,
    JellyfishStageConfig,
    mpi_jellyfish,
)
from repro.parallel.scaling import ScalingPoint, at, simulate_jellyfish
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity.jellyfish import JellyfishConfig, jellyfish_count, jellyfish_dump
from repro.util.fmt import format_table

#: Paper-scale sweep, starting at 1 to show the serial anchor.
SWEEP_NODES = (1, 2, 4, 8, 16, 32, 64)
REAL_NPROCS = 8
ASSEMBLY_K = 25


@dataclass
class FigJellyfishResult:
    """Analytic scaling sweep plus the real-execution identity check."""

    points: List[ScalingPoint]
    serial_baseline_s: float
    real_serial_makespan: float
    real_mpi_makespan: float
    outputs_identical: bool
    dump_identical: bool

    @property
    def real_speedup(self) -> float:
        """Serial over 8-rank virtual makespan of the real miniature run."""
        return self.real_serial_makespan / self.real_mpi_makespan

    def speedup(self, nodes: int) -> float:
        return self.serial_baseline_s / at(self.points, nodes).total_s

    def render(self) -> str:
        rows = [
            [
                p.nodes,
                f"{p.count_max:.0f}",
                f"{p.merge_max:.0f}",
                f"{p.resort_max:.0f}",
                f"{p.exchange_max + p.gather_max:.1f}",
                f"{p.total_s:.0f}",
                f"{self.serial_baseline_s / p.total_s:.2f}",
            ]
            for p in self.points
        ]
        table = format_table(
            ["nodes", "count (s)", "merge (s)", "resort (s)", "comm (s)", "total (s)", "speedup"],
            rows,
        )
        check = (
            "identical"
            if self.outputs_identical and self.dump_identical
            else "DIVERGED"
        )
        real = (
            f"real mpirun @{REAL_NPROCS} ranks: serial {self.real_serial_makespan:.4f}s, "
            f"distributed {self.real_mpi_makespan:.4f}s ({self.real_speedup:.2f}x), "
            f"table + dump bytes vs serial: {check}"
        )
        return f"Distributed Jellyfish — scaling decomposition\n{table}\n\n{real}"


def run(seed: int = 0, nodes: Sequence[int] = SWEEP_NODES) -> FigJellyfishResult:
    points = simulate_jellyfish(nodes)

    _txome, pairs = get_recipe("whitefly-mini").materialize(seed=seed)
    reads = flatten_reads(pairs)
    jcfg = JellyfishConfig(k=ASSEMBLY_K)
    serial = jellyfish_count(
        reads, jcfg.k, canonical=jcfg.canonical, batch_bases=jcfg.batch_bases
    )
    inputs = JellyfishInputs(reads=reads)
    config = JellyfishStageConfig(jellyfish=jcfg)
    # Timed runs carry no workdir: the rank-0 dump write is wall-clock
    # I/O charged to the virtual clock, which would swamp the miniature's
    # counting makespan and muddy the speedup comparison.
    serial_run = mpirun(mpi_jellyfish, 1, inputs, config)
    mpi_run = mpirun(mpi_jellyfish, REAL_NPROCS, inputs, config)
    with tempfile.TemporaryDirectory() as td:
        wd = Path(td)
        dump_run = mpirun(
            mpi_jellyfish,
            REAL_NPROCS,
            inputs,
            JellyfishStageConfig(jellyfish=jcfg, workdir=wd / "mpi"),
        )
        serial_dump = wd / "serial.kmers.fa"
        jellyfish_dump(serial, serial_dump)
        out = dump_run.outputs[0]
        dump_identical = out.out_path.read_bytes() == serial_dump.read_bytes()
    identical = all(
        np.array_equal(r.outputs.counts.index.codes, serial.index.codes)
        and np.array_equal(r.outputs.counts.index.values, serial.index.values)
        for r in (serial_run.outputs + mpi_run.outputs)
    )
    return FigJellyfishResult(
        points=points,
        serial_baseline_s=CALIBRATION.jellyfish_serial_s,  # paper Fig 2: ~2.5 h
        real_serial_makespan=serial_run.makespan,
        real_mpi_makespan=mpi_run.makespan,
        outputs_identical=identical,
        dump_identical=dump_identical,
    )
