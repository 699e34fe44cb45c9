"""Integration test for the combined report generator (fast sections only
are exercised piecemeal; here we check structure with a stubbed runner)."""

import pytest

from repro.experiments import report as report_mod
from repro.experiments.registry import SLOW
from repro.experiments.report import ReportOptions, SECTIONS, write_report


class _Stub:
    def render(self):
        return "stub-render"


@pytest.fixture
def stubbed(monkeypatch):
    calls = []

    def fake_run(exp_id, **kwargs):
        calls.append((exp_id, kwargs))
        return _Stub()

    monkeypatch.setattr(report_mod, "run_experiment", fake_run)
    return calls


class TestReport:
    def test_fast_mode_skips_slow(self, stubbed, tmp_path):
        out = write_report(tmp_path / "r.md", ReportOptions(include_slow=False))
        ids = [c[0] for c in stubbed]
        assert not set(ids) & SLOW
        text = out.read_text()
        assert text.startswith("# Reproduction report")
        assert "stub-render" in text

    def test_slow_mode_includes_validation(self, stubbed, tmp_path):
        write_report(tmp_path / "r.md", ReportOptions(include_slow=True, validation_runs=2))
        by_id = dict(stubbed)
        assert "fig04" in by_id
        assert by_id["fig04"] == {"n_runs": 2}

    def test_every_section_id_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        listed = [exp_id for _title, ids in SECTIONS for exp_id in ids]
        for exp_id in listed:
            assert exp_id in EXPERIMENTS, exp_id
        # Conversely, every registered experiment is in exactly one section.
        for exp_id in EXPERIMENTS:
            assert listed.count(exp_id) == 1, exp_id

    def test_sections_render_headers(self, stubbed, tmp_path):
        out = write_report(tmp_path / "r.md", ReportOptions())
        text = out.read_text()
        for title, ids in SECTIONS:
            if all(i in SLOW for i in ids):
                continue
            assert f"## {title}" in text

    def test_cli_report_subcommand(self, stubbed, tmp_path, capsys):
        from repro.cli import main

        rc = main(["report", "--out", str(tmp_path / "cli.md")])
        assert rc == 0
        assert (tmp_path / "cli.md").exists()
