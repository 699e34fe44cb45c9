"""Integration tests for the experiments CLI and parallel-driver artefacts."""

import pytest

from repro.errors import PipelineError
from repro.experiments.__main__ import main as experiments_main
from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import ParallelTrinityConfig, run_chain
from repro.trinity import TrinityConfig


class TestCli:
    def test_list_mode(self, capsys):
        assert experiments_main([]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "headline" in out

    def test_run_one(self, capsys):
        assert experiments_main(["fig10"]) == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_unknown_id(self, capsys):
        assert experiments_main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err


class TestDriverConfig:
    def test_invalid_nprocs(self):
        with pytest.raises(PipelineError):
            ParallelTrinityConfig(nprocs=0)

    def test_invalid_nthreads(self):
        with pytest.raises(PipelineError):
            ParallelTrinityConfig(nthreads=0)

    def test_unknown_target_launches_nothing(self, smoke_reads):
        """A target is a row key: the back end's ``STAGES`` name is not one."""
        launched = []
        with pytest.raises(PipelineError, match="known: .*'chrysalis'"):
            run_chain(
                ParallelTrinityConfig(), smoke_reads,
                lambda row, inputs, config: launched.append(row),
                target="chrysalis-backend",
            )
        assert launched == []


class TestDriverFiles:
    def test_workdir_artifacts(self, smoke_reads, tmp_path):
        driver = ParallelTrinityDriver(
            ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=2, nthreads=2)
        )
        result = driver.run(smoke_reads, workdir=tmp_path)
        assert result.files["transcripts"].exists()
        assert result.files["bowtie_sam"].exists()
        assert result.files["reads_to_transcripts"].exists()
        # Per-rank part files are produced before merging.
        assert (tmp_path / "bowtie.part0.sam").exists()
        assert (tmp_path / "readsToComponents.part1.out").exists()
