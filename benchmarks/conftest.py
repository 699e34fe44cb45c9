"""Shared benchmark fixtures and the ``BENCH_*.json`` history format.

Each figure benchmark runs its experiment once per round (`pedantic`,
rounds=1) because the experiments are deterministic replays — variance
across rounds would only measure host noise — and records the figure's
key numbers in ``extra_info`` so `--benchmark-json` output carries the
paper-vs-measured comparison.

:func:`append_bench_entry` is the one writer of the checked-in
``BENCH_*.json`` wall-clock histories (fig07, fig09, …): every
invocation *appends* a ``{label, timestamp, points}`` entry — never
overwrites — so the files accumulate a before/after trajectory across
PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

import pytest

from repro.cluster.workload import build_workload
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ as ``bench``.

    Tier-1 already excludes this tree via ``testpaths``; the marker makes
    the split explicit when benchmarks are collected on purpose
    (``pytest benchmarks -m bench`` / ``-m 'not bench'``).
    """
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def workload():
    """The sampled sugarbeet-scale workload shared by the scaling benches."""
    return build_workload(seed=0)


@pytest.fixture(scope="session")
def bench_reads():
    """Miniature read set for kernel benchmarks."""
    _txome, pairs = get_recipe("whitefly-mini").materialize(seed=0)
    return flatten_reads(pairs)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a deterministic experiment exactly once under the benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def append_bench_entry(
    out: Path,
    bench: str,
    workload: str,
    fields: Dict[str, str],
    label: str,
    points: List[Dict[str, float]],
) -> None:
    """Append one labeled, timestamped entry to a ``BENCH_*.json`` history.

    Creates the document (with its ``bench``/``workload``/``fields``
    header) on first use; thereafter only ``entries`` grows (and
    ``fields`` gains any newly documented point field), so earlier
    measurements are never lost.
    """
    out = Path(out)
    if out.exists():
        doc = json.loads(out.read_text())
        doc["fields"].update(fields)  # runners may grow new point fields
    else:
        doc = {
            "bench": bench,
            "workload": workload,
            "fields": fields,
            "entries": [],
        }
    doc["entries"].append(
        {
            "label": label,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "points": points,
        }
    )
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"appended entry {label!r} -> {out}")
