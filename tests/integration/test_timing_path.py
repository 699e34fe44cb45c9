"""One timing record: a pipeline's stage timings are its driver-track spans.

Both pipeline drivers on the smoke recipe.  The metric names are pinned
(the pipeline benchmark reads ``stage.<label>_s`` and ``peak_ram_gb``);
every ``stage.<label>_s`` is its label's summed ``stage`` spans, the
spans sit back to back from 0, ``makespan`` is their sum and
``peak_ram_gb`` their largest ``ram_gb``.  The parallel driver reads its
own stage results through their typed ``*Outputs`` only: with
``StageResult``'s attribute delegation deleted it still writes the serial
pipeline's bytes.  And the library quickstart runs as a user runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.result import StageResult
from repro.parallel.driver import ParallelTrinityConfig, ParallelTrinityDriver
from repro.trinity import TrinityConfig, TrinityPipeline

REPO_ROOT = Path(__file__).resolve().parents[2]

SERIAL_METRICS = [
    "stage.jellyfish_s", "stage.inchworm_s", "stage.chrysalis.bowtie_s",
    "stage.chrysalis.graph_from_fasta_s", "stage.chrysalis.fasta_to_debruijn_s",
    "stage.chrysalis.reads_to_transcripts_s", "stage.chrysalis.quantify_graph_s",
    "stage.butterfly_s", "n_transcripts", "n_contigs", "n_components", "peak_ram_gb",
]
DRIVER_METRICS = [
    "stage.jellyfish[mpi]_s", "stage.inchworm[mpi]_s", "stage.chrysalis.bowtie[mpi]_s",
    "stage.chrysalis.graph_from_fasta[mpi]_s", "stage.chrysalis.reads_to_transcripts[mpi]_s",
    "stage.chrysalis.backend[mpi]_s", "stage.butterfly.pair_reconciliation_s",
    "inchworm.n_threads", "inchworm.team_serial_s", "inchworm.team_makespan_s",
    "inchworm.speedup", "nprocs", "nthreads", "inchworm_threads", "n_transcripts",
    "mpi.jellyfish_makespan_s", "mpi.inchworm_makespan_s", "mpi.bowtie_makespan_s",
    "mpi.gff_makespan_s", "mpi.rtt_makespan_s", "mpi.chrysalis_makespan_s", "peak_ram_gb",
]


def _driver(nprocs: int = 2) -> ParallelTrinityDriver:
    return ParallelTrinityDriver(
        ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=nprocs, nthreads=2)
    )


@pytest.fixture(scope="module")
def driver_result(smoke_reads):
    return _driver().run(smoke_reads)


@pytest.mark.parametrize("which", ["serial", "driver"])
def test_stage_metrics_are_the_driver_track(which, smoke_result, driver_result):
    result, names = {
        "serial": (smoke_result, SERIAL_METRICS),
        "driver": (driver_result, DRIVER_METRICS),
    }[which]
    assert set(result.metrics) == set(names)
    spans = result.spans
    assert spans and all(s.kind == "stage" and s.track == "driver" for s in spans)
    assert spans[0].start == 0.0
    assert all(after.start == before.stop for before, after in zip(spans, spans[1:]))
    summed = {}
    for s in spans:
        summed[s.label] = summed.get(s.label, 0.0) + s.duration
    assert {k for k in names if k.startswith("stage.")} == {f"stage.{k}_s" for k in summed}
    for label, seconds in summed.items():
        assert result.metrics[f"stage.{label}_s"] == seconds
    assert result.makespan == pytest.approx(sum(s.duration for s in spans))
    assert result.metrics["peak_ram_gb"] == max(s.attrs["ram_gb"] for s in spans) > 0


def test_driver_runs_without_attribute_delegation(smoke_reads, tmp_path, monkeypatch):
    TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads, workdir=tmp_path / "serial")
    monkeypatch.delattr(StageResult, "__getattr__")
    result = _driver(nprocs=3).run(smoke_reads, workdir=tmp_path / "driver")
    written = result.outputs.files["transcripts"]
    assert written.read_bytes() == (tmp_path / "serial" / "Trinity.fasta").read_bytes()


def test_quickstart_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "quickstart.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "serial and hybrid transcript sets identical: True" in proc.stdout
    assert "chrysalis.graph_from_fasta" in proc.stdout  # one line per stage span
