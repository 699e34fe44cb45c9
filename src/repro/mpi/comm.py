"""The simulated communicator.

Each rank runs in its own OS thread; collectives are implemented with a
shared slot table guarded by a reusable barrier.  Because every exchange
point is a barrier and rank-local code is deterministic, the whole SPMD
program is deterministic regardless of thread interleaving.

Virtual-time semantics: every collective (i) synchronises all clocks to
the maximum participant time — ranks wait for the slowest, exactly like a
blocking MPI collective — and (ii) adds the network model's cost for the
pooled payload.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import CommAbandonedError, CommError, ScheduleError, TransientIOError
from repro.mpi.clock import Stopwatch, VirtualClock
from repro.mpi.datatypes import nbytes_of
from repro.mpi.network import NetworkModel
from repro.obs.span import Span
from repro.openmp.schedule import dynamic_makespan


@dataclass
class CommStats:
    """Per-rank communication accounting."""

    n_collectives: int = 0
    bytes_sent: int = 0
    comm_time: float = 0.0
    shared_computes: int = 0  # SimComm.shared keys this rank computed
    shared_hits: int = 0  # SimComm.shared keys served from the cache


class _OnceCell:
    """Per-key once-latch of the rank-shared compute cache."""

    __slots__ = ("done", "value", "cost", "exc", "owner")

    def __init__(self, owner: int) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.cost = 0.0
        self.exc: Optional[BaseException] = None
        self.owner = owner


class _SharedState:
    """State shared by all ranks of one simulated communicator."""

    def __init__(self, size: int, network: NetworkModel) -> None:
        self.size = size
        self.network = network
        self.barrier = threading.Barrier(size)
        self.slots: List[Any] = [None] * size
        self.clock_slots: List[float] = [0.0] * size
        # SimComm.shared bookkeeping: one once-latch per cache key.
        self.shared_cells: Dict[Any, _OnceCell] = {}
        self.shared_lock = threading.Lock()
        # Set by the launcher when any rank fails, so ``shared`` waiters
        # bail out instead of waiting forever for a dead owner.
        self.failed = threading.Event()

    def abort(self) -> None:
        """Release every rank blocked anywhere in this communicator:
        barrier waiters (abort) and — via the ``failed`` event — polling
        ``shared`` waiters."""
        self.failed.set()
        self.barrier.abort()


class _Region:
    """Context manager behind :meth:`SimComm.region`."""

    __slots__ = ("_comm", "label", "serial", "attrs", "start")

    def __init__(self, comm: "SimComm", label: str, serial: bool, attrs: Dict[str, Any]):
        self._comm = comm
        self.label = label
        self.serial = serial
        self.attrs = attrs
        self.start = 0.0

    def __enter__(self) -> "_Region":
        if self._comm.faults is not None:
            self._comm.faults.on_phase(self.label)
        self.start = self._comm.clock.now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        stop = self._comm.clock.now
        attrs = dict(self.attrs)
        if self.serial:
            attrs["serial"] = True
        self._comm.spans.append(
            Span(
                "phase",
                self.start,
                stop,
                self.label,
                track=f"rank {self._comm.rank}",
                attrs=attrs or None,
            )
        )


class _Compute(Stopwatch):
    """Context manager behind :meth:`SimComm.compute`."""

    __slots__ = ("_comm", "label", "threads", "attrs", "costs", "weights")

    def __init__(self, comm: "SimComm", label: str, threads: int, attrs: Dict[str, Any]):
        if threads <= 0:
            raise ScheduleError(f"threads must be positive, got {threads}")
        super().__init__()
        self._comm = comm
        self.label = label
        self.threads = threads
        self.attrs = attrs
        self.costs: Optional[Sequence[float]] = None
        self.weights: Optional[Sequence[float]] = None

    def __enter__(self) -> "_Compute":
        if self._comm.faults is not None:
            self._comm.faults.on_phase(self.label)
        return super().__enter__()

    def _team(self) -> tuple:
        """``(items, serial seconds, makespan)`` of the window's team."""
        if self.costs is not None:
            costs = np.asarray(self.costs, dtype=float)
            return costs.size, float(costs.sum()), dynamic_makespan(costs, self.threads)
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ScheduleError(f"weights must be 1-D, got shape {w.shape}")
        if w.size == 0:
            return 0, 0.0, 0.0
        # A fused array pass has no per-item dispatch to simulate: the
        # work-span bound, floored by the heaviest item's share.
        total, wsum = self.seconds, float(w.sum())
        heaviest = total * float(w.max()) / wsum if wsum > 0 else total / w.size
        return w.size, total, max(total / self.threads, heaviest)

    def __exit__(self, exc_type, exc, tb) -> None:
        super().__exit__(exc_type, exc, tb)
        if exc_type is not None:
            return
        charge, attrs = self.seconds, self.attrs
        if self.costs is not None or self.weights is not None:
            items, serial, charge = self._team()
            attrs = {
                "items": items, "serial_time": serial, "n_threads": self.threads,
                "speedup": serial / charge if charge > 0 else 1.0, **attrs,
            }
        self._comm.clock.advance(charge, label=self.label, attrs=attrs or None)


class SimComm:
    """The communicator of one simulated rank: the collectives and shared
    set-up cache the stage bodies use, spelled like mpi4py.

    Construct via :func:`repro.mpi.launcher.mpirun`; each rank function
    receives its own ``SimComm``.
    """

    def __init__(self, rank: int, state: _SharedState):
        if not (0 <= rank < state.size):
            raise CommError(f"rank {rank} out of range for size {state.size}")
        self._rank = rank
        self._state = state
        self.stats = CommStats()
        #: The rank's one span list: labelled phase spans recorded via
        #: :meth:`region` and fault spans (always on — they cost one Span
        #: each), interleaved with the clock's segments in a traced run.
        self.spans: List[Span] = []
        #: The rank's one clock; ``mpirun`` hands it :attr:`spans` when
        #: tracing and :attr:`faults` when given a fault plan.
        self.clock = VirtualClock(track=f"rank {rank}")
        #: Per-rank fault injector (:class:`repro.mpi.faults.RankFaultInjector`),
        #: set by the launcher when ``mpirun`` is given a fault plan.
        self.faults: Optional[Any] = None

    # -- identity ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._state.size

    # -- internals --------------------------------------------------------
    def _barrier_wait(self, op: str = "collective") -> None:
        """One barrier rendezvous that converts a peer-failure abort into
        a tagged :class:`~repro.errors.CommAbandonedError` — every
        blocking collective path observes ``state.failed`` consistently
        instead of leaking a raw ``BrokenBarrierError``."""
        try:
            self._state.barrier.wait()
        except threading.BrokenBarrierError:
            raise CommAbandonedError(
                f"{op} on rank {self._rank} abandoned: a peer rank failed"
            ) from None

    def _exchange(self, value: Any) -> List[Any]:
        """All-to-all slot exchange: returns the list of all contributions.

        Also synchronises clocks to the max participant time (the
        "everyone waits for the slowest" semantic of a blocking
        collective).  Callers add the network cost on top.
        """
        st = self._state
        st.slots[self._rank] = value
        st.clock_slots[self._rank] = self.clock.now
        self._barrier_wait()
        snapshot = list(st.slots)
        t_sync = max(st.clock_slots)
        self._barrier_wait()  # all ranks have read; slots may be reused
        self.clock.sync_to(t_sync)
        return snapshot

    def _charge(
        self,
        cost: float,
        payload_bytes: int,
        op: str = "",
        pooled_bytes: Optional[int] = None,
        items: Optional[int] = None,
    ) -> None:
        attrs: Dict[str, Any] = {"bytes": payload_bytes}
        if pooled_bytes is not None:
            attrs["pooled_bytes"] = pooled_bytes
        if items is not None:
            attrs["items"] = items
        self.clock.advance(cost, kind="comm", label=op, attrs=attrs)
        self.stats.n_collectives += 1
        self.stats.bytes_sent += payload_bytes
        self.stats.comm_time += cost

    # -- phase regions ------------------------------------------------------
    def region(self, label: str, serial: bool = False, **attrs: Any) -> "_Region":
        """Label the virtual-time interval of a ``with`` block.

        Records a ``phase`` :class:`~repro.obs.span.Span` on this rank's
        track covering [entry clock, exit clock] — the labelled algorithm
        regions (``gff:loop1``, ``rtt:setup``, …) that the Chrome export
        nests around the raw compute/wait/comm segments.  Mark
        ``serial=True`` for the paper's redundant serial regions so the
        critical-path analyser can report the Figure-8 serial fraction.

        The span is the only record of the region's duration; a stage
        reports its regions through :meth:`phase_seconds`.
        """
        return _Region(self, label, serial, attrs)

    def phase_seconds(self) -> Dict[str, float]:
        """This rank's region time so far as ``{"phase.<region>_s": s}``.

        Derived from the ``phase`` spans :meth:`region` has recorded,
        entries of one label summed and the ``<stage>:`` prefix dropped —
        the per-rank form of the ``<stage>.phase.*_s`` layers the pipeline
        benchmark reads off the critical rank's spans.  A stage body
        splats it into its ``StageResult.metrics``; the spans stay the
        record, this is a view of them.
        """
        out: Dict[str, float] = {}
        for span in self.spans:
            if span.kind == "phase":
                key = f"phase.{span.label.partition(':')[2] or span.label}_s"
                out[key] = out.get(key, 0.0) + span.duration
        return out

    def compute(self, label: str, threads: int = 1, **attrs: Any) -> "_Compute":
        """Charge the thread CPU time of a ``with`` block to this rank.

        The measured window of rank code (the rule is
        :class:`~repro.mpi.clock.Stopwatch`'s) and the one place a measured
        cost becomes virtual time: on a clean exit the clock advances by
        the window's charge as one ``compute`` segment named ``label``
        carrying ``attrs`` (the context object's ``attrs`` dict may be
        added to inside the block; ``seconds`` is readable after it).  A
        block that raises charges nothing.

        A block run by an OpenMP team of ``threads`` sets one per-item
        cost shape on the context object, and is charged the team's
        makespan (its span adds ``items``, ``serial_time``, ``n_threads``
        and ``speedup``): ``costs``, each item's measured cost (as
        :meth:`map` sets them), under ``schedule(dynamic)``
        (:func:`~repro.openmp.schedule.dynamic_makespan`); or ``weights``,
        the items' shares of one vectorised call, under the work-span
        bound ``max(total / threads, total * max(w) / sum(w))`` of the
        window's thread CPU ``total`` (all-zero weights share evenly, no
        weights charge nothing).  ``threads <= 0`` raises
        :class:`~repro.errors.ScheduleError`.
        """
        return _Compute(self, label, threads, attrs)

    def map(self, label: str, fn: Callable, items: Sequence, threads: int, **attrs: Any) -> list:
        """``[fn(item) for item in items]`` on an OpenMP team of ``threads``.

        The items run serially, in order, so the values are exactly what
        the team's loop computes (no cross-iteration dependencies); each
        item's thread CPU time is its cost in a :meth:`compute` window,
        which charges the team's dynamic-schedule makespan.
        """
        with self.compute(label, threads=threads, **attrs) as window:
            costs = np.zeros(len(items))
            values = []
            for i, item in enumerate(items):
                t0 = time.thread_time()
                values.append(fn(item))
                costs[i] = time.thread_time() - t0
            window.costs = costs
        return values

    # -- fault injection ----------------------------------------------------
    def check_io_fault(self, label: str) -> None:
        """Fault-injection point for one simulated I/O operation.

        A no-op unless the run was launched with a fault plan whose
        :class:`~repro.mpi.faults.FlakyIO` schedule marks this op as
        failing — then a :class:`~repro.errors.TransientIOError` is
        raised (and a zero-length ``fault`` span recorded) for the
        stage's retry policy (:func:`repro.parallel.recovery.with_retry`)
        to absorb.
        """
        inj = self.faults
        if inj is not None and inj.io_fault():
            now = self.clock.now
            self.spans.append(
                Span("fault", now, now, f"fault:io:{label}", track=f"rank {self._rank}")
            )
            raise TransientIOError(
                f"transient I/O fault during {label!r} on rank {self._rank}"
            )

    # -- rank-shared compute-once cache ------------------------------------
    def shared(self, key: Any, fn: Callable[[], Any], cost: Optional[float] = None) -> Any:
        """Compute ``fn()`` once per communicator; return it on every rank.

        The simulated ranks of one ``mpirun`` are threads in one address
        space, so what every *real* rank would build redundantly need only
        be built once per simulation: read-only setup structures (the
        paper's "non-parallel regions") and the pure merge each rank runs
        over a collective's snapshot.  The first rank to arrive at ``key``
        computes the object; all ranks receive the same object, which is
        frozen: a :class:`~repro.seq.kmer_index.KmerIndex` in it has
        read-only arrays, and no rank, stage or caller may mutate a
        container in it.

        Virtual-time semantics are unchanged: every rank's clock advances
        by the *single-rank* cost of the computation — the thread CPU time
        measured on the computing rank (or the caller-supplied ``cost``) —
        exactly what each rank would have been charged had it recomputed
        the structure itself.  Figure 8's redundant-serial-region
        accounting is therefore preserved while host wall-clock drops from
        O(nprocs x setup) to O(setup).

        Not a collective: ranks may call at different virtual times and no
        barrier is implied.  ``key`` must identify one deterministic
        computation (same ``fn`` semantics on every rank).
        """
        st = self._state
        with st.shared_lock:
            cell = st.shared_cells.get(key)
            compute = cell is None
            if compute:
                cell = st.shared_cells[key] = _OnceCell(self._rank)
        if compute:
            watch = Stopwatch()
            try:
                with watch:
                    cell.value = fn()
            except BaseException as exc:
                cell.exc = exc
                cell.done.set()
                raise
            cell.cost = watch.seconds if cost is None else float(cost)
            cell.done.set()
            self.stats.shared_computes += 1
        else:
            while not cell.done.wait(timeout=0.05):
                if st.failed.is_set() and not cell.done.is_set():
                    raise CommAbandonedError(
                        f"shared({key!r}) on rank {self._rank} abandoned: "
                        "a peer rank failed before publishing"
                    )
            if cell.exc is not None:
                # Derivative of the owner's failure: tagged as secondary
                # so the launcher surfaces the owner's exception instead.
                raise CommAbandonedError(
                    f"shared({key!r}) failed on computing rank {cell.owner}: "
                    f"{cell.exc!r}"
                ) from cell.exc
            self.stats.shared_hits += 1
        self.clock.advance(
            cell.cost,
            kind="compute",
            label=f"shared:{key}",
            attrs={"cached": not compute},
        )
        return cell.value

    # -- collectives ------------------------------------------------------
    def barrier(self) -> None:
        """Block until every rank arrives; clocks sync to the slowest."""
        self._exchange(None)
        self._charge(self._state.network.barrier(self.size), 0, op="barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast a generic object from ``root`` to every rank."""
        if not (0 <= root < self.size):
            raise CommError(f"bcast root {root} out of range")
        snapshot = self._exchange(
            (obj, nbytes_of(obj)) if self._rank == root else None
        )
        payload, n = snapshot[root]
        self._charge(
            self._state.network.bcast(self.size, n),
            n if self._rank == root else 0,
            op="bcast",
            pooled_bytes=n,
        )
        return payload

    def allgather(self, obj: Any) -> List[Any]:
        """Pool one object per rank onto every rank (generic payloads)."""
        # Each rank sizes only its own payload (sizing may pickle, which is
        # the dominant host cost of a collective); the exchange then makes
        # every size visible without re-sizing peers' objects O(size^2).
        mine = nbytes_of(obj)
        snapshot = self._exchange((obj, mine))
        total = sum(s for _v, s in snapshot)
        self._charge(
            self._state.network.allgatherv(self.size, total),
            mine,
            op="allgather",
            pooled_bytes=total,
            items=self.size,
        )
        return [v for v, _s in snapshot]

    def allgatherv(self, obj: Any) -> List[Any]:
        """The paper's pooling collective.

        Semantically identical to :meth:`allgather` here (payloads are
        variable-size by construction); kept as a separate name so the
        parallel Chrysalis code reads like the paper's description, and so
        the two-phase size exchange is modelled: a small int allgather
        (the size exchange) precedes the payload allgather.
        """
        mine = nbytes_of(obj)
        sizes = self._exchange(mine)
        self._charge(
            self._state.network.allgatherv(self.size, 8 * self.size),
            8,
            op="allgatherv:sizes",
        )
        snapshot = self._exchange(obj)
        total = sum(int(s) for s in sizes)
        self._charge(
            self._state.network.allgatherv(self.size, total),
            mine,
            op="allgatherv",
            pooled_bytes=total,
            items=self.size,
        )
        return list(snapshot)

    def alltoall(self, values: List[Any]) -> List[Any]:
        """Personalised exchange: item ``j`` of this rank's list goes to
        rank ``j``; returns the items addressed to this rank."""
        if len(values) != self.size:
            raise CommError(
                f"alltoall needs exactly {self.size} values, got {len(values)}"
            )
        # Each rank sizes its own p payloads exactly once and ships the
        # sizes with the values — like allgather — so no rank re-pickles the
        # other ranks' rows (which made the old sizing pass O(p^2) pickles
        # per rank, O(p^3) across the job).
        sizes = [nbytes_of(v) for v in values]
        snapshot = self._exchange((values, sizes))
        total = sum(s for _row, row_sizes in snapshot for s in row_sizes)
        self._charge(
            self._state.network.alltoall(self.size, total),
            sum(sizes),
            op="alltoall",
            pooled_bytes=total,
            items=self.size,
        )
        return [snapshot[src][0][self._rank] for src in range(self.size)]
