"""The pipeline benchmark on smoke-sized inputs: names, identities, failures.

One repetition per workload (one set-up child, one timed operation, one
traced pass), so every emitted value is a single sample and the additive
identities can be checked on the values themselves.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.pipeline import cli, spec

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_declaration():
    assert MANIFEST == spec.manifest()
    assert [w["name"] for w in MANIFEST["workloads"]] == [w.name for w in spec.WORKLOADS]


@pytest.fixture(scope="module", params=[w.name for w in spec.WORKLOADS])
def result(request, tmp_path_factory):
    wl = spec.workload(request.param)
    smoke = replace(wl, recipe=replace(wl.recipe, n_genes=8, n_reads=600))
    trace_dir = tmp_path_factory.mktemp("traces")
    out = cli.measure(smoke, seed=0, seconds=0, trace=None, trace_dir=trace_dir, setup_samples=1)
    out["trace_file"] = trace_dir / f"{wl.name}.trace.json"
    return out


def test_emits_exactly_the_declared_metrics(result):
    declared = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    assert {n: e["unit"] for n, e in result["metrics"].items()} == declared
    assert all(e["n"] == 1 for e in result["metrics"].values())


def test_no_run_failed(result):
    assert result["failures"] == []
    assert result["failed"] == 0 and result["failed_fraction"] == 0
    assert result["attempted"] >= 1


def test_identities_hold(result):
    v = {name: entry["value"] for name, entry in result["metrics"].items()}
    for s in spec.STAGE_LAYERS:
        assert v[f"{s}.compute_s"] + v[f"{s}.wait_s"] + v[f"{s}.comm_s"] == pytest.approx(
            v[f"{s}.makespan_s"], abs=1e-9
        )
        assert v[f"{s}.host_wall_s"] - v[f"{s}.rank_compute_sum_s"] == pytest.approx(
            v[f"{s}.sim_overhead_s"], abs=1e-9
        )
        assert v[f"{s}.serial_s"] <= v[f"{s}.makespan_s"] + 1e-9
    assert sum(v[f"{s}.makespan_s"] for s in spec.STAGE_LAYERS) == pytest.approx(
        v["pipeline.traced_virtual_makespan_s"], abs=1e-9
    )
    assert sum(v[f"{s}.host_wall_s"] for s in spec.STAGE_LAYERS) + v[
        "pipeline.glue_s"
    ] == pytest.approx(v["pipeline.host_wall_s"], abs=1e-3)
    assert v["checkpoint.restores"] == len(spec.STAGE_LAYERS)
    assert v["checkpoint.bytes"] > 0 and v["workdir.bytes"] > 0


def test_span_dump(result):
    spans = result["host_spans"]
    assert spans[0]["name"] == "chain" and spans[0]["parent"] is None
    assert [s["name"] for s in spans[1:] if not s["name"].startswith("glue.")] == list(
        spec.STAGE_LAYERS
    )
    assert all(s["parent"] == "chain" and s["workload"] == result["name"] for s in spans[1:])
    assert 0 <= result["metrics"]["obs.chain_gap_s"]["value"] < 0.05
    events = json.loads(result["trace_file"].read_text())["traceEvents"]
    assert {"compute", "phase", "stage"} <= {e.get("cat") for e in events}
