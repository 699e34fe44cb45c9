"""Unit tests for the deal the scaling replays share (``rank_loads``) and
the variant terms the future-work experiments build on its points."""

import numpy as np
import pytest

from repro.cluster.costmodel import CALIBRATION
from repro.cluster.workload import build_workload
from repro.errors import ScheduleError
from repro.experiments.futurework import sharded_setup, striped_read_s
from repro.parallel.scaling import ScalingPoint, rank_loads, simulate_gff, simulate_rtt


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=0)


@pytest.fixture(scope="module")
def gff(workload):
    """Both chunk deals at 192 nodes and at more nodes than chunks."""
    return {s: simulate_gff([192, 1024], workload, s) for s in ("round_robin", "dynamic")}


class TestRankLoopTimes:
    def test_round_robin_covers_all_work(self):
        times = rank_loads(np.ones(100), 4, "round_robin", nthreads=1)
        # With one thread a rank's time is the exact sum of its items.
        assert times.sum() == pytest.approx(100.0)

    def test_static_block_covers_all_work(self):
        times = rank_loads(np.ones(100), 4, "static_block", nthreads=1)
        assert times.sum() == pytest.approx(100.0)

    def test_dynamic_finishes_all_chunks(self):
        rng = np.random.default_rng(0)
        costs = rng.lognormal(0, 1, 500)
        times = rank_loads(costs, 8, "dynamic", nthreads=1)
        rr = rank_loads(costs, 8, "round_robin", nthreads=1)
        assert times.sum() == pytest.approx(costs.sum())
        # The LPT makespan is bounded below by work/nodes and above by RR.
        assert times.max() <= rr.max() + 1e-9
        assert times.max() >= costs.sum() / 8 - 1e-9

    def test_overhead_added(self, gff):
        # A rank dealt no chunk still pays each loop's per-rank overhead.
        idle = gff["round_robin"][1]
        assert idle.loop1_min == CALIBRATION.gff_loop1_rank_overhead_s
        assert idle.loop2_min == CALIBRATION.gff_loop2_rank_overhead_s

    def test_unknown_strategy(self):
        with pytest.raises(ScheduleError):
            rank_loads(np.ones(4), 2, "bogus")


class TestStrategyComparisons:
    def test_dynamic_at_192_no_worse_than_rr(self, gff):
        rr, dy = gff["round_robin"][0], gff["dynamic"][0]
        assert dy.loop1_max + dy.loop2_max <= rr.loop1_max + rr.loop2_max + 1e-6
        assert dy.loop2_imbalance <= rr.loop2_imbalance + 1e-6

    def test_parallel_serial_region_reduces_serial(self, gff, workload):
        shipped = gff["round_robin"][0]
        sharded = sharded_setup(shipped, workload)
        assert sharded.setup_max < shipped.setup_max
        assert sharded.comm_max > shipped.comm_max  # merging the tables costs comm

    def test_parallel_serial_region_noop_on_one_node(self, workload):
        one = ScalingPoint.of(
            1, loop1=1.0, loop2=1.0, comm=0.0, setup=CALIBRATION.gff_serial_region_s
        )
        assert sharded_setup(one, workload) == one


class TestStripedRttModel:
    def test_striped_io_cheaper_at_scale(self, workload):
        (redundant,) = simulate_rtt([32], workload, read_s=120.0)
        (striped,) = simulate_rtt([32], workload, read_s=striped_read_s(120.0, 32))
        assert striped.loop_max < redundant.loop_max

    def test_page_cached_regime_ties(self, workload):
        # With the paper's ~8 s cached read, striping saves little.
        cached = CALIBRATION.rtt_redundant_read_s
        (redundant,) = simulate_rtt([32], workload)
        (striped,) = simulate_rtt([32], workload, read_s=striped_read_s(cached, 32))
        assert abs(redundant.loop_max - striped.loop_max) < 10.0
