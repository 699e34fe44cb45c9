"""Property tests for the one component deal (repro.parallel.component_stage).

Both strategies must partition the ids exactly for every (nprocs, ids,
costs) — including all-equal and all-zero costs and fewer ids than
ranks; LPT is deterministic with (id, rank) tie-breaks and within the
classic greedy bound; the round robin is ``ids[r::p]``, which LPT at
equal costs also is; and the ids each rank's ``deal`` region takes under ``mpirun``
are the pure function's rows, with nothing sent.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import mpirun
from repro.parallel.component_stage import assign, deal, lpt_assign

nprocs_st = st.integers(min_value=1, max_value=9)


@st.composite
def ids_and_costs(draw):
    ids = sorted(draw(st.sets(st.integers(0, 500), max_size=40)))
    cost = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    costs = draw(
        st.one_of(
            st.lists(cost, min_size=len(ids), max_size=len(ids)),
            st.builds(lambda c: [c] * len(ids), cost),  # all equal (incl. all zero)
        )
    )
    return ids, costs


def _assert_partition(per_rank, ids):
    flat = [i for mine in per_rank for i in mine]
    assert sorted(flat) == list(ids)  # every id exactly once


@given(ids_and_costs(), nprocs_st)
def test_lpt_partitions_deterministically_within_greedy_bound(data, nprocs):
    ids, costs = data
    dealt = lpt_assign(costs, ids, nprocs)
    assert len(dealt) == nprocs
    _assert_partition(dealt, ids)
    assert dealt == lpt_assign(list(costs), list(ids), nprocs)
    cost_of = dict(zip(ids, costs))
    loads = [sum(cost_of[i] for i in mine) for mine in dealt]
    bound = sum(costs) / nprocs + max(costs, default=0.0)
    assert max(loads) <= bound * (1 + 1e-9) + 1e-9


@given(ids_and_costs(), nprocs_st)
def test_lpt_ties_break_by_id_then_rank(data, nprocs):
    """The parent stages' spelled-out deal, step for step."""
    ids, costs = data
    order = sorted(zip(costs, ids), key=lambda t: (-t[0], t[1]))
    loads = [(0.0, r) for r in range(nprocs)]
    heapq.heapify(loads)
    expected = [[] for _ in range(nprocs)]
    for cost, cid in order:
        load, r = heapq.heappop(loads)
        expected[r].append(cid)
        heapq.heappush(loads, (load + cost, r))
    assert lpt_assign(costs, ids, nprocs) == expected


@given(ids_and_costs(), nprocs_st)
def test_equal_costs_deal_ids_in_order_round_the_ranks(data, nprocs):
    ids, _costs = data
    dealt = lpt_assign([1.0] * len(ids), ids, nprocs)
    assert dealt == [ids[r::nprocs] for r in range(nprocs)]


@given(ids_and_costs(), nprocs_st)
def test_round_robin_is_i_mod_p(data, nprocs):
    ids, _costs = data
    dealt = assign("round_robin", ids, nprocs)
    _assert_partition(dealt, ids)
    assert dealt == [ids[r::nprocs] for r in range(nprocs)]
    assert dealt == lpt_assign([1.0] * len(ids), ids, nprocs)


def _deal_body(comm, ids, costs, strategy):
    return deal(comm, "prop", ids, costs, strategy=strategy)


@settings(max_examples=5, deadline=None)
@given(ids_and_costs(), st.sampled_from([1, 3, 5]))
def test_shipped_lists_are_the_pure_assignment(data, nprocs):
    ids, costs = data
    cost_of = dict(zip(ids, costs))
    run = mpirun(_deal_body, nprocs, ids, cost_of, "dynamic")
    assert run.outputs == lpt_assign(costs, ids, nprocs)
    assert run.outputs == assign("dynamic", ids, nprocs, cost_of)
    rr = mpirun(_deal_body, nprocs, ids, cost_of, "round_robin")
    _assert_partition(rr.outputs, ids)
    assert rr.outputs == assign("round_robin", ids, nprocs)


@pytest.mark.parametrize("nprocs", [1, 3, 5])
@settings(max_examples=3, deadline=None)
@given(ids_and_costs())
def test_dynamic_deal_sends_nothing(nprocs, data):
    """Every rank evaluates the LPT itself: no id list crosses the wire."""
    ids, costs = data
    run = mpirun(_deal_body, nprocs, ids, dict(zip(ids, costs)), "dynamic")
    assert run.metrics["bytes_sent"] == 0
