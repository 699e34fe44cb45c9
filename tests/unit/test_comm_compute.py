"""The one measured window: ``comm.compute`` and the stopwatch under it
(its team charge rules are in ``test_openmp.py``)."""

import time

import pytest

from repro.errors import MpiAbortError
from repro.mpi import CrashFault, FaultPlan, StragglerFault, mpirun
from repro.mpi.clock import Stopwatch


def _spin(seconds):
    """Burn thread CPU (not wall) for about ``seconds``."""
    t0 = time.thread_time()
    while time.thread_time() - t0 < seconds:
        pass


class TestStopwatch:
    def test_measures_thread_cpu_not_wall(self):
        with Stopwatch() as asleep:
            time.sleep(0.05)
        with Stopwatch() as busy:
            _spin(0.02)
        assert asleep.seconds < 0.005
        assert 0.02 <= busy.seconds < 0.2

    def test_seconds_readable_after_a_raise(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            with watch:
                _spin(0.005)
                raise RuntimeError("boom")
        assert watch.seconds >= 0.005


class TestCompute:
    def test_sleep_is_not_charged(self):
        """Wall time a rank spends descheduled (here: asleep) never
        reaches its clock — the window charges ``thread_time``."""

        def body(comm):
            with comm.compute("nap"):
                time.sleep(0.05)
            return comm.clock.now

        assert mpirun(body, 2).outputs == pytest.approx([0.0, 0.0], abs=0.005)

    def test_charges_the_window_as_one_labelled_compute_span(self):
        def body(comm):
            with comm.compute("kernel", items=7) as window:
                _spin(0.01)
                window.attrs["hits"] = 3
            assert comm.clock.now == window.seconds >= 0.01
            return window.seconds

        run = mpirun(body, 2, trace=True)
        for rank, seconds in enumerate(run.outputs):
            spans = [s for s in run.spans if s.track == f"rank {rank}"]
            assert [(s.kind, s.label) for s in spans] == [("compute", "kernel")]
            assert spans[0].duration == pytest.approx(seconds)
            assert dict(spans[0].attrs) == {"items": 7, "hits": 3}

    def test_a_raising_block_charges_nothing(self):
        def body(comm):
            try:
                with comm.compute("doomed"):
                    _spin(0.005)
                    raise ValueError("no result, no charge")
            except ValueError:
                pass
            return comm.clock.now

        run = mpirun(body, 1, trace=True)
        assert run.outputs == [0.0]
        assert not [s for s in run.spans if s.label == "doomed"]

    def test_timed_crash_fires_at_the_window_exit(self):
        """A crash scheduled inside the window's virtual interval fires
        when the window is charged: the clock stops at the crash instant
        and the launcher names the crashed rank."""

        def body(comm):
            with comm.compute("kernel"):
                _spin(0.02)
            comm.barrier()

        plan = FaultPlan(crashes=(CrashFault(rank=1, at_time=0.001),))
        with pytest.raises(MpiAbortError) as err:
            mpirun(body, 2, faults=plan)
        assert err.value.rank == 1
        assert err.value.elapsed[1] == pytest.approx(0.001)


class TestTeamWindow:
    """A team window is a compute window: the same no-charge-on-raise and
    straggler rules hold for its makespan."""

    def test_a_raising_team_window_charges_nothing(self):
        def item(x):
            _spin(0.002)
            if x == 2:
                raise ValueError("no result, no charge")
            return x

        def body(comm):
            with pytest.raises(ValueError):
                comm.map("doomed", item, [1, 2, 3], threads=2)
            return comm.clock.now

        run = mpirun(body, 1, trace=True)
        assert run.outputs == [0.0]
        assert not [s for s in run.spans if s.label == "doomed"]

    def test_a_straggler_stretches_a_team_window(self):
        def body(comm):
            with comm.compute("team", threads=2) as window:
                window.costs = [1.0, 1.0, 2.0]
            return comm.clock.now

        plan = FaultPlan(stragglers=(StragglerFault(rank=1, slowdown=3.0),))
        assert mpirun(body, 2, faults=plan).outputs == [
            pytest.approx(3.0), pytest.approx(9.0),
        ]
