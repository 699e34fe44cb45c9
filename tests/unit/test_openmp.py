"""Unit tests for the simulated OpenMP thread teams and dynamic schedule."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.openmp import ThreadTeam, dynamic_makespan
from repro.parallel.chunks import static_block_ranges


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
    def test_map_returns_values_in_order(self):
        team = ThreadTeam(4)
        res = team.map(lambda x: x * 2, [1, 2, 3])
        assert res.values == [2, 4, 6]

    def test_map_with_explicit_costs(self):
        team = ThreadTeam(2)
        res = team.map(lambda x: x, [1, 2, 3, 4], costs=[1.0, 1.0, 1.0, 1.0])
        assert res.makespan == pytest.approx(2.0)
        assert res.serial_time == pytest.approx(4.0)
        assert res.speedup == pytest.approx(2.0)

    def test_costs_shape_checked(self):
        with pytest.raises(ScheduleError):
            ThreadTeam(2).map(lambda x: x, [1, 2], costs=[1.0])

    def test_measured_costs_nonnegative(self):
        res = ThreadTeam(2).map(lambda x: sum(range(100)), [0, 1, 2])
        assert res.makespan >= 0
        assert res.serial_time >= res.makespan

    def test_invalid_team_size(self):
        with pytest.raises(ScheduleError):
            ThreadTeam(0)


class TestTeamBatch:
    def test_apportions_by_weights(self):
        team = ThreadTeam(2)
        res = team.batch(["a", "b", "c"], total_cost=6.0, weights=[1.0, 1.0, 4.0])
        # analytic fused-region bound: max(total/nthreads, max_item)
        assert res.values == ["a", "b", "c"]
        assert res.serial_time == pytest.approx(6.0)
        assert res.makespan == pytest.approx(4.0)  # largest item dominates

    def test_balanced_items_hit_work_bound(self):
        res = ThreadTeam(4).batch(list(range(8)), total_cost=8.0)
        assert res.makespan == pytest.approx(2.0)
        assert res.speedup == pytest.approx(4.0)

    def test_empty_batch(self):
        res = ThreadTeam(4).batch([], total_cost=0.0)
        assert res.values == [] and res.makespan == 0.0

    def test_zero_weights_fall_back_to_even(self):
        res = ThreadTeam(2).batch([1, 2], total_cost=2.0, weights=[0.0, 0.0])
        assert res.makespan == pytest.approx(1.0)

    def test_weights_shape_checked(self):
        with pytest.raises(ScheduleError):
            ThreadTeam(2).batch([1, 2], total_cost=1.0, weights=[1.0])
