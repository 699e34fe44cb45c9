"""End-to-end test of ``repro profile``."""

import json

import pytest

from repro.cli import main
from repro.parallel import driver
from repro.parallel.driver import STAGE_TABLE, _with_upstream, run_chain


class TestProfileCli:
    def test_gff_profile_prints_breakdown_and_writes_chrome(self, capsys, tmp_path):
        chrome_path = tmp_path / "trace.json"
        rc = main(
            [
                "profile",
                "--stage", "gff",
                "--nprocs", "4",
                "--nthreads", "2",
                "--recipe", "whitefly-mini",
                "--chrome", str(chrome_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path of" in out
        assert "critical rank" in out
        assert "serial regions on critical rank" in out
        assert "rank   0 |" in out  # the Gantt rows
        doc = json.loads(chrome_path.read_text())
        thread_names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert thread_names == {"driver", "rank 0", "rank 1", "rank 2", "rank 3"}

    def test_inchworm_profile_prints_breakdown(self, capsys):
        rc = main(
            ["profile", "--stage", "inchworm", "--nprocs", "4", "--nthreads", "2",
             "--recipe", "whitefly-mini"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path of" in out
        assert "inchworm:" in out  # the stage's own region labels
        assert "rank   0 |" in out

    @pytest.mark.parametrize("row", STAGE_TABLE, ids=lambda row: row.key)
    def test_every_driver_stage_profiles(self, capsys, monkeypatch, row):
        """--stage walks the driver's table: exactly the target and its
        upstream stages run, and the target's own region labels show up."""
        chains = []

        def recording_chain(*args, **kwargs):
            chains.append(run_chain(*args, **kwargs))
            return chains[-1]

        monkeypatch.setattr(driver, "run_chain", recording_chain)
        rc = main(
            ["profile", "--stage", row.key, "--nprocs", "3", "--nthreads", "2",
             "--recipe", "smoke", "--strategy", "dynamic"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"critical path of {row.fn.__name__!r}" in out
        assert f"{row.name.split('-')[0]}:" in out  # region labels
        assert "rank   2 |" in out  # the Gantt rows
        (chain,) = chains
        assert set(chain.runs) == _with_upstream(row.key)
