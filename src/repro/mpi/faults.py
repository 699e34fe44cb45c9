"""Deterministic fault injection for the simulated MPI runtime.

The paper assumes a healthy 512-node iDataPlex run, but its own design
choices — chunked round-robin distribution in GraphFromFasta, redundant
whole-file reads in ReadsToTranscripts, PyFasta re-splitting for Bowtie —
are exactly what makes recovery from a lost rank cheap.  This module
supplies the *fault* half of that story; the *recovery* half lives in
:mod:`repro.parallel.recovery`.

A :class:`FaultPlan` is a seedable, fully deterministic description of
what goes wrong in one run:

* :class:`CrashFault` — a fail-stop rank crash, fired either when the
  rank's virtual clock crosses ``at_time`` or when the rank enters a
  :meth:`~repro.mpi.comm.SimComm.region` whose label starts with
  ``phase``;
* :class:`StragglerFault` — a per-rank compute slowdown factor (comm
  costs are network-bound and unaffected);
* :class:`FlakyIO` — a per-op probability that a simulated I/O point
  (``SimComm.check_io_fault``) raises a retryable
  :class:`~repro.errors.TransientIOError`.

Injection is threaded through the clock layer: ``mpirun(..., faults=plan)``
hands each rank a :class:`RankFaultInjector`, held by the rank's
:class:`~repro.mpi.clock.VirtualClock` (stragglers, timed crashes) and its
communicator (phase crashes, flaky I/O).
Everything is keyed off ``(plan.seed, rank, op ordinal)``, so the same
plan over the same workload produces an identical fault sequence —
including across the recovery reruns of
:func:`repro.parallel.recovery.mpirun_with_recovery`, which renumbers a
plan onto the surviving ranks with :meth:`FaultPlan.restrict`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.errors import FaultError, RankCrash


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop crash of one rank, at a virtual time or a phase entry."""

    rank: int
    at_time: Optional[float] = None  # virtual seconds since attempt start
    phase: Optional[str] = None  # region- or compute-label prefix; fires at entry

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise FaultError(f"crash rank must be >= 0, got {self.rank}")
        if self.at_time is None and self.phase is None:
            raise FaultError("a CrashFault needs at_time and/or phase")
        if self.at_time is not None and self.at_time < 0:
            raise FaultError(f"crash at_time must be >= 0, got {self.at_time}")


@dataclass(frozen=True)
class StragglerFault:
    """One rank computes ``slowdown`` times slower than its peers."""

    rank: int
    slowdown: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise FaultError(f"straggler rank must be >= 0, got {self.rank}")
        if self.slowdown < 1.0:
            raise FaultError(f"slowdown must be >= 1, got {self.slowdown}")


@dataclass(frozen=True)
class FlakyIO:
    """Transient I/O fault model: each simulated I/O op fails with
    probability ``rate``, but never more than ``max_consecutive`` times
    in a row on one rank — so a bounded retry policy always converges."""

    rate: float
    max_consecutive: int = 2

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate <= 1.0):
            raise FaultError(f"flaky-io rate must be in [0, 1], got {self.rate}")
        if self.max_consecutive < 1:
            raise FaultError(f"max_consecutive must be >= 1, got {self.max_consecutive}")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one simulated run, deterministically.

    Ranks in the plan are *global* ranks of the original launch; use
    :meth:`restrict` to renumber the plan onto a survivor subset for a
    recovery rerun (a dead rank's faults vanish with it).
    """

    crashes: Tuple[CrashFault, ...] = ()
    stragglers: Tuple[StragglerFault, ...] = ()
    flaky_io: Optional[FlakyIO] = None
    seed: int = 0

    def __post_init__(self) -> None:
        crash_ranks = [c.rank for c in self.crashes]
        if len(crash_ranks) != len(set(crash_ranks)):
            raise FaultError(f"at most one CrashFault per rank: {crash_ranks}")

    @property
    def is_empty(self) -> bool:
        return not self.crashes and not self.stragglers and self.flaky_io is None

    def injector(self, rank: int) -> "RankFaultInjector":
        """The per-rank runtime view of this plan (one per rank per attempt)."""
        return RankFaultInjector(self, rank)

    def restrict(self, survivors: Sequence[int]) -> "FaultPlan":
        """Renumber the plan onto ``survivors`` (sub-rank i = survivors[i]).

        Faults of ranks not in ``survivors`` are dropped — a crashed rank
        stays dead, its pending faults die with it.  Flaky I/O and the
        seed carry over unchanged.
        """
        index = {g: i for i, g in enumerate(survivors)}
        return replace(
            self,
            crashes=tuple(
                replace(c, rank=index[c.rank]) for c in self.crashes if c.rank in index
            ),
            stragglers=tuple(
                replace(s, rank=index[s.rank]) for s in self.stragglers if s.rank in index
            ),
        )

    def describe(self) -> str:
        """One-line human summary (CLI and span annotations)."""
        parts = []
        for c in self.crashes:
            where = f"t={c.at_time:g}s" if c.at_time is not None else f"phase {c.phase!r}"
            parts.append(f"crash rank {c.rank} @ {where}")
        for s in self.stragglers:
            parts.append(f"straggler rank {s.rank} x{s.slowdown:g}")
        if self.flaky_io is not None:
            parts.append(f"flaky-io p={self.flaky_io.rate:g}")
        return "; ".join(parts) if parts else "no faults"

    @classmethod
    def sample(
        cls,
        nprocs: int,
        seed: int = 0,
        crash_rate: float = 0.0,
        crash_horizon_s: float = 1.0,
        straggler_rate: float = 0.0,
        slowdown: float = 4.0,
        io_rate: float = 0.0,
    ) -> "FaultPlan":
        """Draw a random-but-reproducible plan for ``nprocs`` ranks.

        Each rank crashes with probability ``crash_rate`` at a uniform
        virtual time in ``[0, crash_horizon_s)``, straggles with
        probability ``straggler_rate`` at factor ``slowdown``; rank 0
        never crashes (something must survive to be the master).  Each
        rank draws from its own ``(seed, nprocs, rank)`` stream, so one
        rank's fate is independent of its peers'.
        """
        crashes = []
        stragglers = []
        for rank in range(nprocs):
            rng = random.Random(f"faultplan:{seed}:{nprocs}:{rank}")
            crash_draw, time_draw, straggler_draw = (
                rng.random(), rng.random(), rng.random()
            )
            if rank > 0 and crash_draw < crash_rate:
                crashes.append(
                    CrashFault(rank=rank, at_time=time_draw * crash_horizon_s)
                )
            elif straggler_draw < straggler_rate:
                stragglers.append(StragglerFault(rank=rank, slowdown=slowdown))
        flaky = FlakyIO(rate=io_rate) if io_rate > 0 else None
        return cls(
            crashes=tuple(crashes),
            stragglers=tuple(stragglers),
            flaky_io=flaky,
            seed=seed,
        )


class RankFaultInjector:
    """Runtime fault state of one rank for one ``mpirun`` attempt.

    Mutable (tracks the flaky-I/O RNG stream and whether the crash has
    fired); construct a fresh one per rank per attempt via
    :meth:`FaultPlan.injector`.
    """

    __slots__ = ("rank", "crash", "slowdown", "flaky", "crashed", "_io_rng", "_io_run")

    def __init__(self, plan: FaultPlan, rank: int) -> None:
        self.rank = rank
        self.crash = next((c for c in plan.crashes if c.rank == rank), None)
        self.slowdown = max(
            (s.slowdown for s in plan.stragglers if s.rank == rank), default=1.0
        )
        self.flaky = plan.flaky_io
        self.crashed = False
        # Per-(seed, rank) stream: the fault sequence is a pure function
        # of the plan and the rank's (deterministic) op order.
        self._io_rng = random.Random(f"fault-io:{plan.seed}:{rank}")
        self._io_run = 0

    @property
    def crash_time(self) -> Optional[float]:
        return self.crash.at_time if self.crash is not None else None

    def trigger(self, reason: str) -> None:
        """Kill this rank now (raises :class:`~repro.errors.RankCrash`)."""
        self.crashed = True
        raise RankCrash(f"rank {self.rank} crashed {reason}", rank=self.rank)

    def on_phase(self, label: str) -> None:
        """Phase-crash hook, called by ``SimComm.region`` and
        ``SimComm.compute`` on entry."""
        c = self.crash
        if c is not None and not self.crashed and c.phase is not None and label.startswith(c.phase):
            self.trigger(f"entering phase {label!r}")

    def io_fault(self) -> bool:
        """Does the next simulated I/O op fail?  (Deterministic stream;
        bounded to ``max_consecutive`` failures in a row.)"""
        if self.flaky is None or self.flaky.rate <= 0.0:
            return False
        if self._io_run >= self.flaky.max_consecutive:
            self._io_run = 0
            self._io_rng.random()  # keep the stream aligned with the op count
            return False
        if self._io_rng.random() < self.flaky.rate:
            self._io_run += 1
            return True
        self._io_run = 0
        return False
