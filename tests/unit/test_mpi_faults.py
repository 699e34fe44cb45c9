"""Unit tests for fault injection (repro.mpi.faults) and transient-fault
retry (repro.parallel.recovery.with_retry)."""

import pytest

from repro.errors import (
    FaultError,
    MpiAbortError,
    RankCrash,
    TransientIOError,
)
from repro.mpi import CrashFault, FaultPlan, FlakyIO, StragglerFault, mpirun
from repro.parallel.recovery import MAX_ATTEMPTS, with_retry


class TestFaultPlan:
    def test_sample_is_deterministic(self):
        a = FaultPlan.sample(8, seed=3, crash_rate=0.3, straggler_rate=0.3, io_rate=0.1)
        b = FaultPlan.sample(8, seed=3, crash_rate=0.3, straggler_rate=0.3, io_rate=0.1)
        assert a == b

    def test_sample_rank0_never_crashes(self):
        plan = FaultPlan.sample(16, seed=0, crash_rate=1.0)
        assert all(c.rank > 0 for c in plan.crashes)
        assert len(plan.crashes) == 15

    def test_sample_empty_is_empty(self):
        assert FaultPlan.sample(8, seed=0).is_empty

    def test_crash_needs_a_trigger(self):
        with pytest.raises(FaultError):
            CrashFault(rank=1)

    def test_validation(self):
        with pytest.raises(FaultError):
            StragglerFault(rank=1, slowdown=0.5)
        with pytest.raises(FaultError):
            FlakyIO(rate=1.5)
        with pytest.raises(FaultError):
            FaultPlan(crashes=(CrashFault(1, at_time=1), CrashFault(1, at_time=2)))

    def test_restrict_renumbers_and_drops(self):
        plan = FaultPlan(
            crashes=(CrashFault(1, at_time=1.0), CrashFault(3, at_time=2.0)),
            stragglers=(StragglerFault(2, slowdown=2.0),),
        )
        sub = plan.restrict([0, 2, 3])  # rank 1 died
        assert sub.crashes == (CrashFault(2, at_time=2.0),)  # global 3 -> sub 2
        assert sub.stragglers == (StragglerFault(1, slowdown=2.0),)  # global 2 -> sub 1

    def test_describe(self):
        plan = FaultPlan(crashes=(CrashFault(1, at_time=0.5),), flaky_io=FlakyIO(0.2))
        text = plan.describe()
        assert "crash rank 1" in text and "flaky-io" in text
        assert FaultPlan().describe() == "no faults"


def _compute_body(comm, dt):
    comm.clock.advance(dt, label="work")
    comm.barrier()
    return comm.clock.now


class TestInjection:
    def test_straggler_scales_compute(self):
        plan = FaultPlan(stragglers=(StragglerFault(1, slowdown=3.0),))
        res = mpirun(_compute_body, 2, 1.0, faults=plan)
        # The barrier syncs both ranks to the straggler's 3.0s.
        assert res.makespan == pytest.approx(3.0, rel=1e-6)

    def test_timed_crash_aborts_with_rank_crash(self):
        plan = FaultPlan(crashes=(CrashFault(1, at_time=0.5),))
        with pytest.raises(MpiAbortError) as ei:
            mpirun(_compute_body, 2, 1.0, faults=plan)
        assert ei.value.rank == 1
        assert isinstance(ei.value.__cause__, RankCrash)
        # The dead rank's clock stopped exactly at the crash instant.
        assert ei.value.elapsed[1] == pytest.approx(0.5)

    def test_timed_crash_emits_fault_span(self):
        plan = FaultPlan(crashes=(CrashFault(1, at_time=0.5),))
        with pytest.raises(MpiAbortError) as ei:
            mpirun(_compute_body, 2, 1.0, faults=plan)
        labels = [s.label for s in ei.value.spans if s.kind == "fault"]
        assert "fault:crash:rank1" in labels

    def test_phase_crash(self):
        def body(comm):
            with comm.region("stage:setup"):
                comm.clock.advance(0.1)
            with comm.region("stage:loop"):
                comm.clock.advance(0.1)
            comm.barrier()

        plan = FaultPlan(crashes=(CrashFault(1, phase="stage:loop"),))
        with pytest.raises(MpiAbortError) as ei:
            mpirun(body, 2, faults=plan)
        assert isinstance(ei.value.__cause__, RankCrash)
        assert "stage:loop" in str(ei.value.__cause__)

    def test_plan_naming_a_rank_past_the_launch_is_refused(self):
        """A fault for a rank the launch does not have would silently do
        nothing: ``mpirun`` refuses the plan before any rank starts."""
        started = []

        def body(comm):
            started.append(comm.rank)

        plan = FaultPlan(
            crashes=(CrashFault(rank=3, phase="phase"),),
            stragglers=(StragglerFault(rank=7, slowdown=5.0),),
        )
        with pytest.raises(FaultError, match=r"\[3, 7\]"):
            mpirun(body, 3, faults=plan)
        assert started == []
        in_range = FaultPlan(stragglers=(StragglerFault(rank=2, slowdown=5.0),))
        assert mpirun(body, 3, faults=in_range).makespan == 0.0

    def test_empty_plan_changes_nothing(self):
        base = mpirun(_compute_body, 2, 1.0)
        faulted = mpirun(_compute_body, 2, 1.0, faults=FaultPlan())
        assert faulted.makespan == base.makespan


class TestWithRetry:
    def test_noop_without_plan(self):
        def body(comm):
            assert with_retry(comm, "io", lambda: 42) == 42
            return comm.clock.now

        res = mpirun(body, 2)
        assert res.outputs == [0.0, 0.0]  # no backoff charged

    def test_retries_converge_and_charge_backoff(self):
        plan = FaultPlan(flaky_io=FlakyIO(rate=1.0, max_consecutive=2), seed=7)

        def body(comm):
            vals = [with_retry(comm, f"io{i}", lambda: i) for i in range(3)]
            return vals, comm.clock.now

        res = mpirun(body, 2, faults=plan)
        for vals, now in res.outputs:
            assert vals == [0, 1, 2]
            assert now > 0.0  # exponential backoff was charged in virtual time
        retry_spans = [s for s in res.spans if s.label.startswith("fault:retry")]
        assert retry_spans, "retries must be visible as fault spans"

    def test_exhausted_retries_reraise(self):
        """As many consecutive failures as the attempt budget exhaust it:
        three backoffs, 0.05 + 0.1 + 0.2 s, then the fourth failure raises."""
        plan = FaultPlan(flaky_io=FlakyIO(rate=1.0, max_consecutive=MAX_ATTEMPTS), seed=0)

        def body(comm):
            with_retry(comm, "io", lambda: None)

        with pytest.raises(MpiAbortError) as ei:
            mpirun(body, 1, faults=plan)
        assert isinstance(ei.value.__cause__, TransientIOError)
        backoffs = [s.attrs["backoff_s"] for s in ei.value.spans if s.label == "fault:retry:io"]
        assert backoffs == [0.05, 0.1, 0.2]

    def test_io_stream_is_deterministic(self):
        plan = FaultPlan(flaky_io=FlakyIO(rate=0.5), seed=11)

        def body(comm):
            return [comm.faults.io_fault() for _ in range(20)]

        a = mpirun(body, 2, faults=plan)
        b = mpirun(body, 2, faults=plan)
        assert a.outputs == b.outputs
        # Per-rank streams differ (seeded by rank).
        assert a.outputs[0] != a.outputs[1]
