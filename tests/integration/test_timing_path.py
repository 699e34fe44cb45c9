"""One timing record: a pipeline's stage timings are its driver-track spans.

Both pipeline drivers on the smoke recipe.  The metric names are pinned
(the pipeline benchmark reads ``stage.<label>_s``); every
``stage.<label>_s`` is its label's summed ``stage`` spans, the spans sit
back to back from 0 and ``makespan`` is their sum.  A live stage span
carries host time only: no RAM is measured for it, so none is reported,
while the modelled paper-scale timelines keep theirs.  The parallel driver reads its
own stage results through their typed ``*Outputs`` only: with
``StageResult``'s attribute delegation deleted it still writes the serial
pipeline's bytes.  And the quickstart and scheduling examples run as a
user runs them.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.result import StageResult
from repro.parallel.driver import ParallelTrinityConfig, ParallelTrinityDriver
from repro.parallel.scaling import simulate_parallel_timeline, simulate_serial_timeline
from repro.trinity import TrinityConfig, TrinityPipeline

REPO_ROOT = Path(__file__).resolve().parents[2]

SERIAL_METRICS = [
    "stage.jellyfish_s", "stage.inchworm_s", "stage.chrysalis.bowtie_s",
    "stage.chrysalis.graph_from_fasta_s", "stage.chrysalis.fasta_to_debruijn_s",
    "stage.chrysalis.reads_to_transcripts_s", "stage.chrysalis.quantify_graph_s",
    "stage.butterfly_s", "n_transcripts", "n_contigs", "n_components",
]
DRIVER_METRICS = [
    "stage.jellyfish[mpi]_s", "stage.inchworm[mpi]_s", "stage.chrysalis.bowtie[mpi]_s",
    "stage.chrysalis.graph_from_fasta[mpi]_s", "stage.chrysalis.reads_to_transcripts[mpi]_s",
    "stage.chrysalis.backend[mpi]_s",
    "nprocs", "nthreads", "inchworm_threads", "n_transcripts",
    "mpi.jellyfish_makespan_s", "mpi.inchworm_makespan_s", "mpi.bowtie_makespan_s",
    "mpi.gff_makespan_s", "mpi.rtt_makespan_s", "mpi.chrysalis_makespan_s",
    "checkpoint.restores", "checkpoint.writes", "faults.rank_losses",
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


def test_only_modelled_spans_carry_ram(smoke_result, driver_result):
    """RAM is reported where it is modelled (the paper-scale timelines of
    Figs 2 and 11) and nowhere else: a live stage span holds its host
    time only, and neither driver's metrics hold a ``ram`` / ``mem`` key."""
    for result in (smoke_result, driver_result):
        assert [s.attr("ram_gb") for s in result.spans] == [None] * len(result.spans)
        assert not [k for k in result.metrics if {"ram", "mem"} & set(re.split(r"[._]", k))]
    for timeline in (simulate_serial_timeline(), simulate_parallel_timeline()):
        assert timeline and all(s.attr("ram_gb") > 0 for s in timeline)


def test_driver_runs_without_attribute_delegation(smoke_reads, tmp_path, monkeypatch):
    TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads, workdir=tmp_path / "serial")
    monkeypatch.delattr(StageResult, "__getattr__")
    result = _driver(nprocs=3).run(smoke_reads, workdir=tmp_path / "driver")
    written = result.outputs.files["transcripts"]
    assert written.read_bytes() == (tmp_path / "serial" / "Trinity.fasta").read_bytes()


def _run_example(name, *argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name), *argv],
        capture_output=True, text=True, env=env, timeout=300, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_custom_scheduling_example_runs():
    proc = _run_example("custom_scheduling.py")
    assert "round-robin" in proc.stdout
    assert "128" in proc.stdout  # the last node count's row


def test_quickstart_example_runs():
    proc = _run_example("quickstart.py")
    assert "serial and hybrid transcript sets identical: True" in proc.stdout
    assert "chrysalis.graph_from_fasta" in proc.stdout  # one line per stage span


def test_mpi_trace_example_runs(tmp_path):
    proc = _run_example("mpi_trace.py", "2", cwd=tmp_path)
    assert "rank   1 |" in proc.stdout  # the Gantt chart's last row
    assert "critical rank" in proc.stdout
    assert json.loads((tmp_path / "mpi_trace.json").read_text())["traceEvents"]
