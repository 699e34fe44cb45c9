"""Unit tests for the paper-scale scaling replays (Figs 7-11 machinery).

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
    at,
    gff_serial_baseline_s,
    rtt_serial_baseline_s,
    simulate_bowtie,
    simulate_gff,
    simulate_parallel_timeline,
    simulate_rtt,
    simulate_serial_timeline,
)

GFF_NODES = [16, 64, 96, 192]


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=0)


@pytest.fixture(scope="module")
def gff(workload):
    return simulate_gff(GFF_NODES, workload)


@pytest.fixture(scope="module")
def rtt(workload):
    return simulate_rtt([4, 32], workload)


def bowtie(nodes):
    (point,) = simulate_bowtie([nodes])
    return point


class TestGff:
    def test_serial_baseline_anchor(self):
        assert gff_serial_baseline_s() == pytest.approx(122_610.0, rel=0.01)

    def test_total_decreases_with_nodes(self, gff):
        assert at(gff, 64).total_s < at(gff, 16).total_s

    def test_loops_share_decreases(self, gff):
        assert at(gff, 192).loops_share < at(gff, 16).loops_share

    def test_16_node_anchor(self, gff):
        # Fig 7: 27 133 s at 16 nodes (total speedup 4.5).
        assert at(gff, 16).total_s == pytest.approx(27_133.0, rel=0.05)

    def test_imbalance_grows(self, gff):
        assert at(gff, 192).loop2_imbalance > at(gff, 16).loop2_imbalance

    def test_max_ge_min(self, gff):
        p = at(gff, 96)
        assert p.loop1_max >= p.loop1_min
        assert p.loop2_max >= p.loop2_min

    def test_serial_region_constant(self, gff):
        assert at(gff, 16).setup_max == at(gff, 192).setup_max

    def test_sweep_ordering(self, gff):
        assert [p.nodes for p in gff] == GFF_NODES

    def test_static_strategy_supported(self, workload):
        (p,) = simulate_gff([16], workload, strategy="static_block")
        assert p.total_s > 0

    def test_unknown_strategy_rejected(self, workload):
        with pytest.raises(ScheduleError):
            simulate_gff([16], workload, strategy="magic")

    def test_invalid_nodes_rejected(self, workload):
        with pytest.raises(ScheduleError):
            simulate_gff([0], workload)


class TestRtt:
    def test_serial_baseline_anchor(self):
        assert rtt_serial_baseline_s() == pytest.approx(20_190.0, rel=0.01)

    def test_4_node_anchor(self, rtt):
        assert at(rtt, 4).loop_max == pytest.approx(3_123.0, rel=0.1)

    def test_near_linear_loop_scaling(self, rtt):
        speedup = at(rtt, 4).loop_max / at(rtt, 32).loop_max
        assert 6.0 < speedup < 9.0  # paper: 8.37

    def test_concat_constant_and_small(self, rtt):
        for p in rtt:
            assert p.concat_max < 15.0  # paper: "below 15 seconds"

    def test_loop_share_decreases(self, rtt):
        assert at(rtt, 32).loops_share < at(rtt, 4).loops_share

    def test_sweep(self, workload):
        pts = simulate_rtt([8, 4], workload)
        assert [p.nodes for p in pts] == [8, 4]


class TestBowtie:
    def test_serial_anchor(self):
        p1 = bowtie(1)
        assert p1.total_s == pytest.approx(28_800.0, rel=0.05)
        assert p1.split_max == 0.0  # no split needed on one node

    def test_split_constant_across_nodes(self):
        assert bowtie(16).split_max == bowtie(128).split_max

    def test_split_dominates_at_scale(self):
        p128 = bowtie(128)
        assert p128.split_max > p128.align_max  # Fig 10's observation

    def test_overall_speedup_saturates_near_3x(self):
        assert 2.5 < bowtie(1).total_s / bowtie(128).total_s < 3.5

    def test_sweep(self):
        pts = simulate_bowtie([1, 16])
        assert [p.nodes for p in pts] == [1, 16]

    def test_invalid_nodes(self):
        with pytest.raises(ScheduleError):
            simulate_bowtie([0], 1000)


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

    def test_headline_chrysalis_under_5h(self, gff, rtt):
        total = (
            at(gff, 192).total_s
            + at(rtt, 32).total_s
            + bowtie(128).total_s
            + CALIBRATION.chrysalis_misc_serial_s
        )
        assert total / 3600 < 5.0
