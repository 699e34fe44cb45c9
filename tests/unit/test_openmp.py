"""Unit tests for the simulated OpenMP dynamic schedule and the thread
team a rank is charged through ``comm.compute(threads=)`` / ``comm.map``."""

import time

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.mpi import mpirun
from repro.openmp import dynamic_makespan
from repro.parallel.chunks import static_block_ranges


def _spin(seconds):
    """Burn thread CPU (not wall) for about ``seconds``."""
    t0 = time.thread_time()
    while time.thread_time() - t0 < seconds:
        pass


def _one_rank(body):
    """``body(comm)``'s return and its one compute span, on one traced rank."""
    run = mpirun(body, 1, trace=True)
    spans = [s for s in run.spans if s.kind == "compute"]
    return run.outputs[0], spans


class TestMakespans:
    def test_single_thread_is_sum(self):
        costs = [1.0, 2.0, 3.0]
        assert dynamic_makespan(costs, 1) == 6.0

    def test_dynamic_bounds(self):
        rng = np.random.default_rng(0)
        costs = rng.random(100)
        for t in (2, 4, 8):
            ms = dynamic_makespan(costs, t)
            assert ms >= costs.sum() / t - 1e-9  # work bound
            assert ms >= costs.max() - 1e-9  # critical-path bound
            assert ms <= costs.sum() + 1e-9

    def test_dynamic_beats_static_on_skewed_sorted(self):
        # Front-loaded costs: contiguous static blocks give thread 0 all
        # the heavy items.
        costs = np.array([10.0] * 10 + [1.0] * 30)
        blocks = [static_block_ranges(costs.size, t, 4) for t in range(4)]
        static = max(costs[a:b].sum() for a, b in blocks)
        assert dynamic_makespan(costs, 4) < static

    def test_uniform_costs_near_ideal(self):
        costs = np.ones(64)
        assert dynamic_makespan(costs, 8) == pytest.approx(8.0)

    def test_empty_costs(self):
        assert dynamic_makespan([], 4) == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ScheduleError):
            dynamic_makespan([-1.0], 2)


class TestThreadTeam:
    """``comm.map`` and ``costs``: the dynamic schedule over per-item costs."""

    def test_map_returns_values_in_order(self):
        values, (span,) = _one_rank(
            lambda comm: comm.map("loop", lambda x: x * 2, [1, 2, 3], threads=4, chunk=0)
        )
        assert values == [2, 4, 6]
        assert span.label == "loop"
        assert set(span.attrs) == {"items", "serial_time", "n_threads", "speedup", "chunk"}
        assert (span.attrs["items"], span.attrs["n_threads"]) == (3, 4)

    def test_map_with_explicit_costs(self):
        def body(comm):
            with comm.compute("team", threads=2) as window:
                window.costs = [1.0, 1.0, 1.0, 3.0]
            return comm.clock.now

        now, (span,) = _one_rank(body)
        # Threads take items 0 and 1, then 2 and 3: free at 2.0 and 4.0.
        assert now == pytest.approx(4.0)
        assert span.attrs["serial_time"] == pytest.approx(6.0)
        assert span.attrs["speedup"] == pytest.approx(1.5)

    def test_costs_shape_checked(self):
        def body(comm):
            with pytest.raises(ScheduleError):
                with comm.compute("team", threads=2) as window:
                    window.costs = [[1.0], [1.0]]
            return comm.clock.now

        assert _one_rank(body) == (0.0, [])

    def test_measured_costs_nonnegative(self):
        def body(comm):
            comm.map("loop", _spin, [0.004, 0.004, 0.004], threads=2)
            return comm.clock.now

        now, (span,) = _one_rank(body)
        assert span.attrs["serial_time"] >= 0.012
        # Two items on one thread, one on the other: two thirds of the sum.
        assert now == pytest.approx(span.attrs["serial_time"] * 2 / 3, rel=0.25)

    def test_invalid_team_size(self):
        calls = []

        def body(comm):
            with pytest.raises(ScheduleError):
                comm.compute("team", threads=0)
            with pytest.raises(ScheduleError):
                comm.map("team", calls.append, [1, 2], threads=-1)
            return comm.clock.now

        assert _one_rank(body) == (0.0, [])
        assert calls == []


def _fused(threads, weights):
    """One vectorised call's window on ``threads`` threads: its thread CPU
    seconds, the charge and the span."""

    def body(comm):
        with comm.compute("fused", threads=threads) as window:
            _spin(0.01)
            window.weights = weights
        return window.seconds, comm.clock.now

    (seconds, now), spans = _one_rank(body)
    return seconds, now, spans


class TestTeamBatch:
    """``weights``: the window's thread CPU under the work-span bound."""

    def test_apportions_by_weights(self):
        seconds, now, (span,) = _fused(2, [1.0, 1.0, 4.0])
        # max(total / threads, largest item's share): the largest item dominates.
        assert now == pytest.approx(seconds * 4 / 6)
        assert span.attrs["serial_time"] == seconds
        assert (span.attrs["items"], span.attrs["n_threads"]) == (3, 2)

    def test_balanced_items_hit_work_bound(self):
        seconds, now, (span,) = _fused(4, [1.0] * 8)
        assert now == pytest.approx(seconds / 4)
        assert span.attrs["speedup"] == pytest.approx(4.0)

    def test_empty_batch(self):
        _seconds, now, spans = _fused(4, [])
        assert now == 0.0 and spans == []

    def test_zero_weights_fall_back_to_even(self):
        seconds, now, _spans = _fused(2, [0.0, 0.0])
        assert now == pytest.approx(seconds / 2)

    def test_weights_shape_checked(self):
        def body(comm):
            with pytest.raises(ScheduleError):
                with comm.compute("fused", threads=2) as window:
                    window.weights = [[1.0], [1.0]]
            return comm.clock.now

        assert _one_rank(body) == (0.0, [])
