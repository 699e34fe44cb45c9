"""Shared benchmark fixtures.

Each figure benchmark runs its experiment once per round (`pedantic`,
rounds=1) because the experiments are deterministic replays — variance
across rounds would only measure host noise — and records the figure's
key numbers in ``extra_info`` so `--benchmark-json` output carries the
paper-vs-modelled comparison.

The checked-in ``BENCH_*.json`` files are frozen histories (no writer
remains; ``test_bench_histories.py`` checks their shape).  Stage-level
readings come from ``python3 -m benchmarks.pipeline --trace 1``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, List, NamedTuple

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


def _best_of(fn: Callable[[], Any], repeat: int) -> float:
    """Lowest host wall-clock of ``repeat`` calls of ``fn``."""
    best = None
    for _ in range(max(repeat, 1)):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


class Launches(NamedTuple):
    """What :func:`best_launch` keeps of one configuration's launches."""

    run: Any  # the StageResult with the lowest virtual makespan
    wall_s: float  # the lowest host wall-clock
    all: List[Any]  # every launch's StageResult (identity is checked on all)


@pytest.fixture
def best_launch(benchmark):
    """``best_launch(launch, recorded=...) -> Launches``: the best of at
    least three warm ``launch()`` calls, the process pinned to one CPU
    for the duration of the test.

    The one copy of the launch-ratio workaround.  A miniature ``mpirun``
    is a few ms of thread CPU per rank, and two host effects outweigh
    that on a rank's ``thread_time`` clock: rank threads sharing CPUs
    charge their switches to each other, and one pass of the cyclic
    collector (10-20 ms) lands on whichever rank thread allocated last.
    Pinning removes the first, best-of-N the second; both go when rank
    compute runs under a run token (ROADMAP item 6).  The one
    ``recorded`` configuration of a test runs under pytest-benchmark
    (its column in the report); every round it makes is kept and counts
    towards the three.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    def best(launch: Callable[[], Any], *, recorded: bool) -> Launches:
        timed: List[tuple] = []

        def once() -> None:
            t0 = time.perf_counter()
            run = launch()
            timed.append((run, time.perf_counter() - t0))

        if recorded:
            benchmark(once)
        while len(timed) < 3:
            once()
        return Launches(
            run=min((run for run, _wall in timed), key=lambda run: run.makespan),
            wall_s=min(wall for _run, wall in timed),
            all=[run for run, _wall in timed],
        )

    try:
        yield best
    finally:
        os.sched_setaffinity(0, cpus)
