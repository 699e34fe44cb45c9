"""Unit tests for the rank-shared compute-once cache (SimComm.shared)."""

import pytest

from repro.errors import CommError
from repro.mpi import mpirun
from repro.mpi.network import ZERO_COST
from repro.obs.critical import rank_clock_spans
from repro.parallel.mpi_jellyfish import JellyfishInputs, mpi_jellyfish


class TestSharedCache:
    def test_same_object_on_every_rank(self):
        def body(comm):
            obj = comm.shared("table", lambda: {"a": [1, 2, 3]})
            return id(obj)

        res = mpirun(body, 4, network=ZERO_COST)
        assert len(set(res.outputs)) == 1

    def test_computed_exactly_once(self):
        def body(comm):
            comm.shared("k", lambda: object())
            return (comm.stats.shared_computes, comm.stats.shared_hits)

        res = mpirun(body, 6, network=ZERO_COST)
        computes = sum(c for c, _h in res.outputs)
        hits = sum(h for _c, h in res.outputs)
        assert computes == 1
        assert hits == 5

    def test_every_rank_charged_single_rank_cost(self):
        """The compute happens once, but each rank's virtual clock still
        advances by the full build cost (Figure 8's redundant-serial-region
        accounting)."""

        def body(comm):
            comm.shared("k", lambda: 42, cost=1.5)
            return comm.clock.now

        res = mpirun(body, 4, network=ZERO_COST)
        assert res.outputs == [1.5] * 4

    def test_distinct_keys_distinct_computes(self):
        def body(comm):
            a = comm.shared(("k", 1), lambda: [1])
            b = comm.shared(("k", 2), lambda: [2])
            return (a, b)

        res = mpirun(body, 3, network=ZERO_COST)
        assert all(r == ([1], [2]) for r in res.outputs)

    def test_single_rank_fast_path(self):
        def body(comm):
            v = comm.shared("k", lambda: "x", cost=0.25)
            return (v, comm.clock.now, comm.stats.shared_computes)

        res = mpirun(body, 1)
        assert res.outputs == [("x", 0.25, 1)]

    def test_traced_run_matches_untraced(self):
        def body(comm):
            v = comm.shared("k", lambda: sum(range(100)), cost=2.0)
            comm.barrier()
            return (v, comm.clock.now)

        plain = mpirun(body, 3, network=ZERO_COST)
        traced = mpirun(body, 3, network=ZERO_COST, trace=True)
        assert plain.outputs == traced.outputs
        assert plain.makespan == traced.makespan

    def test_trace_records_compute_segment(self):
        def body(comm):
            comm.shared("k", lambda: None, cost=3.0)

        res = mpirun(body, 2, network=ZERO_COST, trace=True)
        for spans in rank_clock_spans(res):
            assert sum(s.duration for s in spans if s.kind == "compute") == pytest.approx(3.0)

    def test_compute_error_propagates(self):
        def body(comm):
            return comm.shared("bad", lambda: 1 // 0)

        with pytest.raises(CommError):
            mpirun(body, 3, network=ZERO_COST)


class TestSharedMergesAreFrozen:
    def test_merged_kmer_table_is_read_only_on_every_rank(self, smoke_reads):
        """The merged Jellyfish table is one shared object: writing into it
        through any rank raises instead of changing every rank's table."""
        run = mpirun(mpi_jellyfish, 3, JellyfishInputs(reads=smoke_reads))
        counts = run.outputs[1].outputs.counts
        assert counts is run.outputs[0].outputs.counts
        with pytest.raises(ValueError):
            counts.codes[0] = 0
        with pytest.raises(ValueError):
            counts.values[0] = 0
