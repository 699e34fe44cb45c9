"""Shared fixtures: small deterministic datasets and pipeline artefacts.

Also hosts the suite's hang watchdog: the simulated MPI runtime blocks
ranks on barriers/condition variables, so a failure-propagation bug
shows up as a deadlocked test.  pytest-timeout is not a baked-in
dependency, so a SIGALRM watchdog (main-thread alarm; rank threads are
daemons) fails the test after ``DEFAULT_TEST_TIMEOUT_S`` instead of
letting the run hang.  Override per test with ``@pytest.mark.timeout(N)``.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig, TrinityPipeline
from repro.trinity.jellyfish import jellyfish_count


DEFAULT_TEST_TIMEOUT_S = 300.0


def _watchdog_timeout(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    return DEFAULT_TEST_TIMEOUT_S


def _watchdog_available() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _run_with_watchdog(item, phase: str):
    seconds = _watchdog_timeout(item)

    def _alarm(signum, frame):  # noqa: ARG001 - signal-handler signature
        raise TimeoutError(
            f"watchdog: {item.nodeid} {phase} exceeded {seconds:.0f}s "
            f"(likely a deadlocked simulated-MPI rank)"
        )

    old_handler = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    if not _watchdog_available():
        yield
        return
    yield from _run_with_watchdog(item, "setup")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _watchdog_available():
        yield
        return
    yield from _run_with_watchdog(item, "call")


@pytest.fixture(scope="session")
def smoke_data():
    """(transcriptome, reads) for the tiny error-free dataset."""
    txome, pairs = get_recipe("smoke").materialize(seed=1)
    return txome, flatten_reads(pairs)


@pytest.fixture(scope="session")
def smoke_reads(smoke_data):
    return smoke_data[1]


@pytest.fixture(scope="session")
def smoke_txome(smoke_data):
    return smoke_data[0]


@pytest.fixture(scope="session")
def smoke_counts(smoke_reads):
    return jellyfish_count(smoke_reads, k=25)


@pytest.fixture(scope="session")
def smoke_solid(smoke_counts):
    """What Jellyfish hands on: the counts at the pipeline's solid threshold."""
    return smoke_counts.filtered(TrinityConfig().min_kmer_count)


@pytest.fixture(scope="session")
def smoke_result(smoke_reads):
    """One full serial pipeline run on the smoke dataset."""
    return TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads)
