"""Unit tests for the paper-scale scaling simulator (Figs 7-11 machinery).

These assert *structural* properties (monotonicity, conservation, anchor
closeness); exact figure-by-figure comparisons live in EXPERIMENTS.md and
the benchmarks.
"""

import pytest

from repro.cluster.costmodel import CALIBRATION
from repro.cluster.workload import build_workload
from repro.errors import ScheduleError
from repro.obs.span import stage_seconds
from repro.parallel.scaling import (
    chrysalis_total_s,
    gff_serial_baseline_s,
    rtt_serial_baseline_s,
    simulate_bowtie_point,
    simulate_bowtie_scaling,
    simulate_gff_point,
    simulate_gff_scaling,
    simulate_parallel_timeline,
    simulate_rtt_point,
    simulate_rtt_scaling,
    simulate_serial_timeline,
)


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=0)


class TestGff:
    def test_serial_baseline_anchor(self):
        assert gff_serial_baseline_s() == pytest.approx(122_610.0, rel=0.01)

    def test_total_decreases_with_nodes(self, workload):
        p16 = simulate_gff_point(16, workload)
        p64 = simulate_gff_point(64, workload)
        assert p64.total_s < p16.total_s

    def test_loops_share_decreases(self, workload):
        p16 = simulate_gff_point(16, workload)
        p192 = simulate_gff_point(192, workload)
        assert p192.loops_share < p16.loops_share

    def test_16_node_anchor(self, workload):
        # Fig 7: 27 133 s at 16 nodes (total speedup 4.5).
        p16 = simulate_gff_point(16, workload)
        assert p16.total_s == pytest.approx(27_133.0, rel=0.05)

    def test_imbalance_grows(self, workload):
        p16 = simulate_gff_point(16, workload)
        p192 = simulate_gff_point(192, workload)
        assert p192.loop2_imbalance > p16.loop2_imbalance

    def test_max_ge_min(self, workload):
        p = simulate_gff_point(96, workload)
        assert p.loop1_max >= p.loop1_min
        assert p.loop2_max >= p.loop2_min

    def test_serial_region_constant(self, workload):
        p16 = simulate_gff_point(16, workload)
        p192 = simulate_gff_point(192, workload)
        assert p16.serial_s == p192.serial_s

    def test_sweep_ordering(self, workload):
        pts = simulate_gff_scaling([16, 64, 192], workload)
        assert [p.nodes for p in pts] == [16, 64, 192]

    def test_static_strategy_supported(self, workload):
        p = simulate_gff_point(16, workload, strategy="static_block")
        assert p.total_s > 0

    def test_unknown_strategy_rejected(self, workload):
        with pytest.raises(ScheduleError):
            simulate_gff_point(16, workload, strategy="magic")

    def test_invalid_nodes_rejected(self, workload):
        with pytest.raises(ScheduleError):
            simulate_gff_point(0, workload)


class TestRtt:
    def test_serial_baseline_anchor(self):
        assert rtt_serial_baseline_s() == pytest.approx(20_190.0, rel=0.01)

    def test_4_node_anchor(self, workload):
        p4 = simulate_rtt_point(4, workload)
        assert p4.loop_max == pytest.approx(3_123.0, rel=0.1)

    def test_near_linear_loop_scaling(self, workload):
        p4 = simulate_rtt_point(4, workload)
        p32 = simulate_rtt_point(32, workload)
        speedup = p4.loop_max / p32.loop_max
        assert 6.0 < speedup < 9.0  # paper: 8.37

    def test_concat_constant_and_small(self, workload):
        for nodes in (4, 32):
            p = simulate_rtt_point(nodes, workload)
            assert p.concat_s < 15.0  # paper: "below 15 seconds"

    def test_loop_share_decreases(self, workload):
        p4 = simulate_rtt_point(4, workload)
        p32 = simulate_rtt_point(32, workload)
        assert p32.loop_share < p4.loop_share

    def test_sweep(self, workload):
        pts = simulate_rtt_scaling([4, 8], workload)
        assert len(pts) == 2


class TestBowtie:
    def test_serial_anchor(self):
        p1 = simulate_bowtie_point(1, 129_800_000)
        assert p1.total_s == pytest.approx(28_800.0, rel=0.05)
        assert p1.split_s == 0.0  # no split needed on one node

    def test_split_constant_across_nodes(self):
        p16 = simulate_bowtie_point(16, 129_800_000)
        p128 = simulate_bowtie_point(128, 129_800_000)
        assert p16.split_s == p128.split_s

    def test_split_dominates_at_scale(self):
        p128 = simulate_bowtie_point(128, 129_800_000)
        assert p128.split_s > p128.bowtie_s  # Fig 10's observation

    def test_overall_speedup_saturates_near_3x(self):
        p1 = simulate_bowtie_point(1, 129_800_000)
        p128 = simulate_bowtie_point(128, 129_800_000)
        assert 2.5 < p1.total_s / p128.total_s < 3.5

    def test_sweep(self):
        pts = simulate_bowtie_scaling([1, 16])
        assert [p.nodes for p in pts] == [1, 16]

    def test_invalid_nodes(self):
        with pytest.raises(ScheduleError):
            simulate_bowtie_point(0, 1000)


class TestTimelines:
    def test_serial_timeline_close_to_60h(self):
        tl = simulate_serial_timeline()
        assert tl[-1].stop / 3600 == pytest.approx(58, abs=4)

    def test_serial_chrysalis_dominates(self):
        tl = simulate_serial_timeline()
        chrysalis = sum(
            d for s, d in stage_seconds(tl).items() if s.startswith("chrysalis")
        )
        assert chrysalis / tl[-1].stop > 0.7

    def test_parallel_timeline_shrinks_chrysalis(self, workload):
        serial = simulate_serial_timeline()
        parallel = simulate_parallel_timeline(nodes=16, workload=workload)
        s_chr = sum(d for s, d in stage_seconds(serial).items() if "chrysalis" in s)
        p_chr = sum(d for s, d in stage_seconds(parallel).items() if "chrysalis" in s)
        assert p_chr < s_chr / 3

    def test_headline_chrysalis_under_5h(self, workload):
        gff = simulate_gff_point(192, workload)
        rtt = simulate_rtt_point(32, workload)
        bowtie = simulate_bowtie_point(128, 129_800_000)
        assert chrysalis_total_s(gff, rtt, bowtie) / 3600 < 5.0
