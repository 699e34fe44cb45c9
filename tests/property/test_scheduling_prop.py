"""Property-based tests for chunking and schedule simulation invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openmp.schedule import dynamic_makespan
from repro.parallel.chunks import chunk_ranges, chunks_for_rank, static_block_ranges

costs_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0, max_size=120
)
threads_strategy = st.integers(min_value=1, max_value=16)


@given(costs_strategy, threads_strategy)
def test_dynamic_makespan_bounds(costs, threads):
    costs = np.asarray(costs)
    ms = dynamic_makespan(costs, threads)
    total = float(costs.sum())
    assert ms <= total + 1e-9
    assert ms >= total / threads - 1e-9
    if costs.size:
        assert ms >= costs.max() - 1e-9


@given(
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=64),
)
def test_chunked_round_robin_partitions_exactly(n_items, chunk_size, nprocs):
    """The paper's partial-final-chunk caveat: every item is processed
    exactly once, for every (n_items, chunk_size, nprocs) combination."""
    ranges = chunk_ranges(n_items, chunk_size)
    seen = np.zeros(n_items, dtype=int)
    for rank in range(nprocs):
        for c in chunks_for_rank(len(ranges), rank, nprocs):
            start, stop = ranges[c]
            seen[start:stop] += 1
    assert (seen == 1).all()


@given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=1, max_value=64))
def test_static_blocks_partition_exactly(n_items, nprocs):
    seen = np.zeros(n_items, dtype=int)
    for rank in range(nprocs):
        a, b = static_block_ranges(n_items, rank, nprocs)
        seen[a:b] += 1
    assert (seen == 1).all()


@given(costs_strategy, threads_strategy)
def test_more_threads_never_slower(costs, threads):
    costs = np.asarray(costs)
    ms1 = dynamic_makespan(costs, threads)
    ms2 = dynamic_makespan(costs, threads * 2)
    assert ms2 <= ms1 + 1e-9
