"""Unit tests for the experiment registry."""

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment


class TestRegistry:
    def test_all_figures_registered(self):
        for eid in ["fig02", "fig03", "fig04", "fig05_06", "fig07", "fig08", "fig09", "fig10", "fig11", "headline"]:
            assert eid in EXPERIMENTS

    def test_ablations_registered(self):
        for eid in ["abl-sched", "abl-rtt-io", "abl-merge"]:
            assert eid in EXPERIMENTS

    def test_unknown_raises_with_known_ids(self):
        with pytest.raises(KeyError, match="fig07"):
            get_experiment("fig99")

    def test_loaders_resolve(self):
        for exp in EXPERIMENTS.values():
            assert callable(exp.load())

    def test_run_experiment_returns_renderable(self):
        result = run_experiment("fig10")
        assert "Figure 10" in result.render()
