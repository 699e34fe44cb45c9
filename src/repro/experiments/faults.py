"""faults: makespan degradation under injected faults, with recovery.

The paper reports healthy-cluster runs only; this experiment asks the
operational follow-up — *what does a lost node or a slow node cost?* —
using the fault-injection layer (:mod:`repro.mpi.faults`) and the
crash recovery (:mod:`repro.parallel.recovery`).

A fully deterministic replay stage stands in for the real kernels: a
chunked round-robin loop whose per-chunk virtual costs are drawn from
the workload seed (real stage makespans are measured thread-time, which
is not exactly reproducible — the replay makes the sweep's makespans
and therefore the degradation table bit-identical across runs).  Each
scenario's pooled outputs are checked against the fault-free run, so
every table row doubles as a correctness assertion: recovery changes
*when* the answer arrives, never *what* it is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.mpi.comm import SimComm
from repro.mpi.faults import FaultPlan
from repro.parallel.chunks import chunks_for_rank
from repro.parallel.recovery import mpirun_with_recovery, with_retry
from repro.util.fmt import format_table


def _chunk_costs(n_chunks: int, seed: int) -> List[float]:
    """Per-chunk virtual compute costs (deterministic in the seed)."""
    rng = random.Random(f"faults-replay:{seed}")
    return [0.05 + 0.1 * rng.random() for _ in range(n_chunks)]


def replay_stage(comm: SimComm, n_chunks: int = 24, seed: int = 0) -> List[int]:
    """A GFF-shaped SPMD body with deterministic virtual costs.

    Chunked round-robin compute loop + allgather pooling, with one
    retryable I/O point per chunk — enough surface for every fault kind
    (timed/phase crashes, stragglers, flaky I/O) to land somewhere real.
    """
    costs = _chunk_costs(n_chunks, seed)
    mine = chunks_for_rank(n_chunks, comm.rank, comm.size)
    vals: List[int] = []
    with comm.region("replay:loop", chunks=len(mine)):
        for c in mine:
            with_retry(comm, f"replay:read_chunk{c}", lambda: None)
            comm.clock.advance(costs[c], label=f"replay:chunk{c}")
            # A deterministic per-chunk "result" (what pooling must keep
            # intact across recoveries, whatever rank computed it).
            vals.append(c * 1_000_003 + seed)
    pooled = comm.allgather(vals)
    return sorted(v for part in pooled for v in part)


@dataclass
class FaultScenario:
    """One sweep point: a fault plan and what happened under it."""

    label: str
    plan: Optional[FaultPlan]
    makespan_s: float
    degradation: float  # makespan / fault-free makespan
    rank_losses: int
    retries: int
    outputs_ok: bool


@dataclass
class FaultSweepResult:
    nprocs: int
    seed: int
    scenarios: List[FaultScenario]

    def render(self) -> str:
        rows = [
            [
                s.label,
                s.plan.describe() if s.plan is not None else "—",
                f"{s.makespan_s:.3f}",
                f"{s.degradation:.2f}x",
                s.rank_losses,
                s.retries,
                "yes" if s.outputs_ok else "NO",
            ]
            for s in self.scenarios
        ]
        return (
            f"Fault sweep — {self.nprocs} ranks, replay seed {self.seed} "
            f"(makespan vs the fault-free run; outputs checked each row)\n"
            + format_table(
                ["scenario", "faults", "makespan (s)", "degradation",
                 "ranks lost", "io retries", "outputs ok"],
                rows,
            )
        )


def run_fault_sweep(
    nprocs: int = 8,
    seed: int = 0,
    n_chunks: int = 24,
    crash_rates: Sequence[float] = (0.15, 0.3),
    straggler_slowdowns: Sequence[float] = (2.0, 4.0),
    io_rates: Sequence[float] = (0.1, 0.3),
) -> FaultSweepResult:
    """Sweep crash / straggler / flaky-I/O rates against the replay stage.

    Every scenario runs under :func:`mpirun_with_recovery` allowed to
    lose all but one rank, enough to survive the sampled plans; each row
    records the virtual makespan, its degradation over the fault-free
    baseline, and whether the pooled outputs still match the baseline
    exactly.
    """
    max_losses = nprocs - 1
    base = mpirun_with_recovery(
        replay_stage, nprocs, n_chunks, seed, max_rank_losses=max_losses
    )
    base_out = base.outputs[0]

    def one(label: str, plan: Optional[FaultPlan]) -> FaultScenario:
        if plan is None:
            res = base
        else:
            res = mpirun_with_recovery(
                replay_stage, nprocs, n_chunks, seed, faults=plan,
                max_rank_losses=max_losses,
            )
        retries = sum(
            1 for s in res.spans if s.kind == "fault" and s.label.startswith("fault:retry")
        )
        return FaultScenario(
            label=label,
            plan=plan,
            makespan_s=res.makespan,
            degradation=res.makespan / base.makespan if base.makespan else 1.0,
            rank_losses=int(res.metrics.get("faults.rank_losses", 0.0)),
            retries=retries,
            outputs_ok=all(out == base_out for out in res.outputs),
        )

    scenarios = [one("fault-free", None)]
    # Crash horizon inside the fault-free makespan so sampled crashes
    # actually fire mid-stage rather than after completion.
    horizon = 0.8 * base.makespan
    for rate in crash_rates:
        plan = FaultPlan.sample(
            nprocs, seed=seed, crash_rate=rate, crash_horizon_s=horizon
        )
        scenarios.append(one(f"crashes p={rate:g}", plan))
    for slowdown in straggler_slowdowns:
        plan = FaultPlan.sample(
            nprocs, seed=seed, straggler_rate=0.25, slowdown=slowdown
        )
        scenarios.append(one(f"stragglers x{slowdown:g}", plan))
    for rate in io_rates:
        plan = FaultPlan.sample(nprocs, seed=seed, io_rate=rate)
        scenarios.append(one(f"flaky io p={rate:g}", plan))
    return FaultSweepResult(nprocs=nprocs, seed=seed, scenarios=scenarios)
