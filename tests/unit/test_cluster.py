"""Unit tests for calibration and workload sampling."""

import numpy as np
import pytest

from repro.cluster.costmodel import CALIBRATION
from repro.cluster.workload import build_workload


class TestCalibration:
    def test_serial_anchors(self):
        c = CALIBRATION
        assert c.gff_serial_total_s == 122_610.0
        assert c.rtt_serial_total_s == 20_190.0

    def test_gff_work_closes_baseline(self):
        c = CALIBRATION
        loops = (c.gff_loop1_thread_work_s + c.gff_loop2_thread_work_s) / 16
        assert loops + c.gff_serial_region_s == pytest.approx(c.gff_serial_total_s, rel=0.01)

    def test_rtt_pieces_close_baseline(self):
        c = CALIBRATION
        total = c.rtt_loop_work_s + c.rtt_assign_s + c.rtt_concat_s + c.rtt_serial_residual_s
        assert total == pytest.approx(c.rtt_serial_total_s, rel=0.01)

    def test_frozen(self):
        with pytest.raises(Exception):
            CALIBRATION.gff_serial_region_s = 3.0


class TestWorkload:
    def test_shapes(self):
        wl = build_workload(seed=0)
        assert wl.loop1_costs.size == wl.n_contigs
        assert wl.loop2_costs.size == wl.n_contigs
        assert wl.rtt_chunk_costs.size == wl.n_read_chunks

    def test_totals_match_calibration(self):
        wl = build_workload(seed=0)
        kappa = CALIBRATION.gff_hybrid_work_factor
        assert wl.loop1_costs.sum() == pytest.approx(
            kappa * CALIBRATION.gff_loop1_thread_work_s, rel=1e-6
        )
        assert wl.loop2_costs.sum() == pytest.approx(
            kappa * CALIBRATION.gff_loop2_thread_work_s, rel=1e-6
        )
        assert wl.rtt_chunk_costs.sum() == pytest.approx(
            CALIBRATION.rtt_loop_work_s, rel=1e-6
        )

    def test_deterministic_by_seed(self):
        a = build_workload(seed=3)
        b = build_workload(seed=3)
        assert np.array_equal(a.loop2_costs, b.loop2_costs)

    def test_seed_changes_sampling(self):
        a = build_workload(seed=3)
        b = build_workload(seed=4)
        assert not np.array_equal(a.loop2_costs, b.loop2_costs)

    def test_loop2_heavier_tail_than_loop1(self):
        wl = build_workload(seed=0)
        cv1 = wl.loop1_costs.std() / wl.loop1_costs.mean()
        cv2 = wl.loop2_costs.std() / wl.loop2_costs.mean()
        assert cv2 > cv1

    def test_abundance_order_head_heavy(self):
        wl = build_workload(seed=0, order="abundance")
        n = wl.loop1_costs.size
        head = wl.loop1_costs[: n // 10].sum()
        tail = wl.loop1_costs[-n // 10 :].sum()
        assert head > 2 * tail

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            build_workload(order="sorted")

    def test_payload_bytes_positive(self):
        wl = build_workload(seed=0)
        assert wl.weld_payload_bytes > 0
        assert wl.pair_payload_bytes > 0

    def test_unknown_workload_name(self):
        with pytest.raises(KeyError):
            build_workload("nope")
