"""``mpirun`` for the simulated runtime.

Runs an SPMD function on ``nprocs`` simulated ranks (one thread each) and
collects per-rank return values, end times, spans and comm statistics.
Each rank has one :class:`~repro.mpi.clock.VirtualClock`; the launcher
hands it the rank's span list when tracing and the rank's fault injector
when given a plan, so a traced run's clock segments land once, in the
same per-rank list as its phase and fault spans.  Exceptions on any rank
abort the run and are re-raised on the caller with the failing rank
attached; remaining ranks are released via barrier abort so the process
never deadlocks on a dead rank.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import CommAbandonedError, CommError, FaultError, MpiAbortError, RankCrash
from repro.mpi.comm import CommStats, SimComm, _SharedState
from repro.mpi.faults import FaultPlan
from repro.mpi.network import IDATAPLEX_FDR10, NetworkModel
from repro.obs.result import StageResult
from repro.obs.span import Span


def _aggregate_metrics(stats: List[CommStats]) -> Dict[str, float]:
    """Sum per-rank CommStats into the run's scalar metrics."""
    out: Dict[str, float] = {
        "bytes_sent": 0.0,
        "n_collectives": 0.0,
        "comm_time": 0.0,
        "shared_computes": 0.0,
        "shared_hits": 0.0,
    }
    for st in stats:
        out["bytes_sent"] += st.bytes_sent
        out["n_collectives"] += st.n_collectives
        out["comm_time"] += st.comm_time
        out["shared_computes"] += st.shared_computes
        out["shared_hits"] += st.shared_hits
    return out


@dataclass
class _RankFailure:
    rank: int
    exc: BaseException


def _failure_severity(failure: _RankFailure) -> int:
    """Order failures by how likely they are to be the root cause.

    0 — a genuine exception (the bug, or an injected crash);
    1 — a tagged secondary: a blocking op abandoned *because* a peer
        failed (``CommAbandonedError``);
    2 — a raw ``BrokenBarrierError`` leaked from a barrier abort.
    """
    if isinstance(failure.exc, threading.BrokenBarrierError):
        return 2
    if isinstance(failure.exc, CommAbandonedError):
        return 1
    return 0


def mpirun(
    fn: Callable[..., Any],
    nprocs: int,
    *args: Any,
    network: NetworkModel = IDATAPLEX_FDR10,
    trace: bool = False,
    faults: Optional[FaultPlan] = None,
    **kwargs: Any,
) -> StageResult:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` simulated ranks.

    ``fn`` must treat ``comm`` (a :class:`SimComm`) as its only channel to
    other ranks.  With ``trace=True``, every rank's clock records its
    compute/wait/comm segments as spans on its ``rank r`` track (the
    views are in :mod:`repro.obs.critical`).

    With ``faults`` (a :class:`~repro.mpi.faults.FaultPlan`), rank
    crashes, stragglers and flaky I/O are injected deterministically
    through each rank's clock and communicator; see
    :func:`repro.parallel.recovery.mpirun_with_recovery` for the
    crash-recovering wrapper.

    Returns a :class:`~repro.obs.result.StageResult`: per-rank return
    values in ``outputs`` (rank order), per-rank ``CommStats`` in
    ``comm``, every rank's spans — labelled phases, faults and, when
    traced, the clock segments — in ``spans``, each rank's end time in
    ``elapsed`` and the aggregated comm counters in ``metrics``.

    On any rank failure the remaining ranks are released (barrier abort,
    the shared ``failed`` event) and an
    :class:`~repro.errors.MpiAbortError` is raised carrying the *primary*
    (root-cause) rank and exception and every span recorded so far — a
    traced crashing rank's clock segments end at its crash instant;
    tagged secondary abandonment errors never mask it and are attached as
    notes/``secondaries``.
    """
    if nprocs <= 0:
        raise CommError(f"nprocs must be positive, got {nprocs}")
    if faults is not None:
        named = [f.rank for f in faults.crashes + faults.stragglers if f.rank >= nprocs]
        if named:
            raise FaultError(f"fault plan names rank(s) {named} of a {nprocs}-rank launch")
    state = _SharedState(nprocs, network)
    comms = [SimComm(r, state) for r in range(nprocs)]
    faulty = faults is not None and not faults.is_empty
    for comm in comms:
        if trace:
            comm.clock.spans = comm.spans
        if faulty:
            comm.faults = comm.clock.faults = faults.injector(comm.rank)
    returns: List[Any] = [None] * nprocs
    failures: List[_RankFailure] = []
    failure_lock = threading.Lock()

    def runner(rank: int) -> None:
        try:
            returns[rank] = fn(comms[rank], *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must not hang peers
            with failure_lock:
                failures.append(_RankFailure(rank, exc))
            if isinstance(exc, RankCrash):
                now = comms[rank].clock.now
                comms[rank].spans.append(
                    Span("fault", now, now, f"fault:crash:rank{rank}",
                         track=f"rank {rank}", attrs={"exc": repr(exc)})
                )
            # Release everyone blocked anywhere in the communicator.
            state.abort()

    if nprocs == 1:
        # Fast path: no threads for serial "parallel" runs.
        runner(0)
    else:
        threads = [
            threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
            for r in range(nprocs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    if failures:
        failures.sort(key=lambda f: (_failure_severity(f), f.rank))
        primary, secondaries = failures[0], failures[1:]
        all_spans: List[Span] = []
        for c in comms:
            all_spans.extend(c.spans)
        err = MpiAbortError(
            f"rank {primary.rank} failed: {primary.exc!r}",
            rank=primary.rank,
            elapsed=[c.clock.now for c in comms],
            spans=all_spans,
            secondaries=secondaries,
        )
        for s in secondaries:
            note = f"secondary failure on rank {s.rank}: {s.exc!r}"
            if hasattr(err, "add_note"):  # 3.11+
                err.add_note(note)
        raise err from primary.exc
    elapsed = [c.clock.now for c in comms]
    stats = [c.stats for c in comms]
    spans: List[Span] = []
    for c in comms:
        spans.extend(c.spans)
    return StageResult(
        stage=getattr(fn, "__name__", "mpirun"),
        outputs=returns,
        makespan=max(elapsed) if elapsed else 0.0,
        spans=spans,
        comm=stats,
        metrics=_aggregate_metrics(stats),
        elapsed=elapsed,
    )
