"""Transient-fault retry and rank-loss recovery over the fault-injected
simulated MPI runtime.

The paper's design choices make recovery *cheap*, and this module cashes
that in:

* **Transient faults** (flaky I/O) are absorbed where they happen with
  :func:`with_retry` — exponential backoff charged to the rank's virtual
  clock as ``wait`` time, so retries show up honestly in the makespan
  attribution.
* **Rank loss** (fail-stop crash) is recovered by
  :func:`mpirun_with_recovery`: the stage is relaunched on the surviving
  ranks and the paper's ``i mod p`` round-robin map re-deals every
  chunk — including the dead rank's — over the new ``p``.  No per-rank
  state needs migrating: GraphFromFasta pools results on every rank
  (and the read blocks of its sharded weldmer scan are a function of
  ``p`` alone), ReadsToTranscripts re-reads the whole file anyway
  (redundant I/O), MPI Bowtie re-splits the contigs into ``p - 1``
  pieces, and the distributed Butterfly re-deals its components
  (both the round robin, item ``i`` to rank ``i mod p``, and the LPT
  assignments are pure functions of the workload and the new ``p``,
  evaluated by every rank).  Stage outputs are
  therefore identical to a fault-free run — a tested invariant.

Faults and recoveries are recorded on the run itself: ``fault`` spans on
the failing rank's track and on a ``recovery`` track, and — on a run that
lost ranks — ``faults.*`` keys in its ``metrics``.  A recovered run's
Chrome trace shows the failed attempts, the crash instants and the
backoff intervals.  The launch path has one knob, ``max_rank_losses``;
the retry budget and backoff are the module constants below.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TypeVar

from repro.errors import FaultError, MpiAbortError, RankCrash, TransientIOError
from repro.mpi.comm import SimComm
from repro.mpi.faults import FaultPlan
from repro.mpi.launcher import mpirun
from repro.mpi.network import IDATAPLEX_FDR10, NetworkModel
from repro.obs.result import StageResult
from repro.obs.span import Span

T = TypeVar("T")

#: Track name the recovery wrapper emits its attempt/restart spans on.
RECOVERY_TRACK = "recovery"


#: Transient-fault retry budget: attempts per I/O point, and the virtual
#: backoff before retry ``n`` (1-based), ``BASE_BACKOFF_S * BACKOFF_FACTOR
#: ** (n - 1)``.
MAX_ATTEMPTS = 4
BASE_BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0


def with_retry(comm: SimComm, label: str, fn: Callable[[], T]) -> T:
    """Run one simulated I/O operation with transient-fault retry.

    Consults the rank's flaky-I/O schedule (``comm.check_io_fault``)
    before each attempt; on an injected :class:`TransientIOError` the
    rank backs off exponentially on its *virtual* clock (a ``wait``
    segment plus a ``fault:retry`` span) and tries again.  Fault-free
    runs pay nothing — the check is a no-op without a plan.  The
    :data:`MAX_ATTEMPTS` budget exceeds :class:`~repro.mpi.faults.FlakyIO`'s
    default ``max_consecutive``, so injected flakiness always converges.
    """
    attempt = 0
    while True:
        try:
            comm.check_io_fault(label)
            return fn()
        except TransientIOError:
            attempt += 1
            if attempt >= MAX_ATTEMPTS:
                raise
            backoff = BASE_BACKOFF_S * BACKOFF_FACTOR ** (attempt - 1)
            t0 = comm.clock.now
            comm.clock.advance(backoff, kind="wait", label=f"fault:backoff:{label}")
            comm.spans.append(
                Span(
                    "fault",
                    t0,
                    comm.clock.now,
                    f"fault:retry:{label}",
                    track=f"rank {comm.rank}",
                    attrs={"attempt": attempt, "backoff_s": backoff},
                )
            )


def mpirun_with_recovery(
    fn: Callable[..., Any],
    nprocs: int,
    *args: Any,
    faults: Optional[FaultPlan] = None,
    max_rank_losses: int = 2,
    network: NetworkModel = IDATAPLEX_FDR10,
    **kwargs: Any,
) -> StageResult:
    """``mpirun`` that survives injected rank crashes by rerunning on the
    survivors.

    On a :class:`~repro.errors.RankCrash` primary failure, the dead
    rank's faults are dropped (:meth:`FaultPlan.restrict`), the virtual
    time burnt by the failed attempt (its makespan at abort) is banked,
    and the stage is relaunched with ``p - 1`` ranks — the ``i mod p``
    round-robin map redistributes the dead rank's work automatically.
    Repeats up to ``max_rank_losses`` times while a rank survives.
    Non-crash failures (genuine bugs, exhausted retries) are re-raised
    unchanged.

    The returned :class:`StageResult` covers the *whole* timeline: failed
    attempts' spans, ``fault`` spans on the ``recovery`` track, and the
    final attempt's spans shifted to start where the last crash left off;
    ``makespan``/``elapsed`` include the banked time.  The merged spans
    join attempts on different rank counts, so :mod:`repro.obs.critical`
    refuses a recovered run (``faults.rank_losses`` in its metrics).

    Deterministic: the same plan over the same workload yields the same
    survivor sequence, recovery spans and outputs on every run.
    """
    if max_rank_losses < 0:
        raise FaultError(f"max_rank_losses must be >= 0, got {max_rank_losses}")
    survivors: List[int] = list(range(nprocs))
    t_base = 0.0
    losses = 0
    merged_spans: List[Span] = []
    while True:
        sub_plan = faults.restrict(survivors) if faults is not None else None
        try:
            res = mpirun(
                fn, len(survivors), *args, network=network, faults=sub_plan, **kwargs
            )
            break
        except MpiAbortError as exc:
            crash = exc.__cause__
            if not (
                isinstance(crash, RankCrash) and losses < max_rank_losses and len(survivors) > 1
            ):
                raise
            losses += 1
            dead = survivors[exc.rank]
            attempt_makespan = max(exc.elapsed) if exc.elapsed else 0.0
            merged_spans.extend(s.shifted(t_base) for s in exc.spans)
            merged_spans.append(
                Span(
                    "fault",
                    t_base,
                    t_base + attempt_makespan,
                    f"fault:lost-rank{dead}:attempt{losses}",
                    track=RECOVERY_TRACK,
                    attrs={"dead_rank": dead, "survivors": len(survivors) - 1},
                )
            )
            t_base += attempt_makespan
            survivors.remove(dead)

    if losses == 0:
        return res
    merged_spans.extend(s.shifted(t_base) for s in res.spans)
    metrics = dict(res.metrics)
    metrics.update(
        {
            "faults.rank_losses": float(losses),
            "faults.survivors": float(len(survivors)),
            "faults.recovery_overhead_s": t_base,
        }
    )
    return StageResult(
        stage=res.stage,
        outputs=res.outputs,
        makespan=t_base + res.makespan,
        spans=merged_spans,
        comm=res.comm,
        metrics=metrics,
        elapsed=[t_base + e for e in res.elapsed],
        children=res.children,
        rank=res.rank,
    )
