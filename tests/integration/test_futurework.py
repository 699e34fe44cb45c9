"""The paper's named future work (SS:VI), evaluated where it has always
been evaluated: the labelled analytic replays ``fw-*`` of
:mod:`repro.experiments.futurework`.  (The sharded weldmer scan itself is
the shipped ``gff`` stage; ``test_mpi_stages.TestMpiGff`` holds it to the
serial reference.)"""

from repro.experiments import run_experiment


class TestFutureWorkExperiments:
    def test_dynamic_partition_reduces_imbalance(self):
        res = run_experiment("fw-dynamic", nodes_list=(64, 192))
        for rr_imb, dy_imb in zip(res.round_robin_imbalance, res.dynamic_imbalance):
            assert dy_imb <= rr_imb + 0.01
        assert res.dynamic_s[-1] <= res.round_robin_s[-1]

    def test_serial_region_share_shrinks(self):
        res = run_experiment("fw-serial-regions", nodes_list=(16, 192))
        assert res.sharded_share[-1] < res.shipped_share[-1]
        assert res.sharded_total_s[-1] < res.shipped_total_s[-1]

    def test_striped_io_wins_on_cold_storage(self):
        res = run_experiment("fw-striped-io", nodes_list=(4, 64), io_cost_s=120.0)
        assert res.striped_loop_s[-1] < res.redundant_loop_s[-1]

    def test_renders(self):
        for eid in ("fw-dynamic", "fw-serial-regions", "fw-striped-io"):
            out = run_experiment(eid).render()
            assert "Future work" in out
