"""Unit tests for buffer collectives, comm splitting and tracing."""

import numpy as np
import pytest

from repro.errors import CommError
from repro.mpi import mpirun
from repro.mpi.network import ZERO_COST
from repro.mpi.trace import RankTrace, render_gantt, trace_summary
from repro.obs.span import Span


class TestBufferCollectives:
    def test_Bcast(self):
        def body(comm):
            arr = np.arange(5) if comm.rank == 0 else None
            return comm.Bcast(arr, root=0).tolist()

        res = mpirun(body, 3)
        assert res.outputs == [[0, 1, 2, 3, 4]] * 3

    def test_Bcast_requires_array_at_root(self):
        def body(comm):
            comm.Bcast([1, 2, 3] if comm.rank == 0 else None, root=0)

        with pytest.raises(CommError):
            mpirun(body, 2)

    def test_Allgatherv_concatenates_in_rank_order(self):
        def body(comm):
            return comm.Allgatherv(np.full(comm.rank + 1, comm.rank)).tolist()

        res = mpirun(body, 3)
        assert res.outputs == [[0, 1, 1, 2, 2, 2]] * 3

    def test_Allgatherv_empty_contributions(self):
        def body(comm):
            arr = np.arange(2) if comm.rank == 1 else np.empty(0, dtype=np.int64)
            return comm.Allgatherv(arr).tolist()

        res = mpirun(body, 3)
        assert res.outputs == [[0, 1]] * 3

    def test_Allgatherv_rejects_non_array(self):
        def body(comm):
            comm.Allgatherv("not an array")

        with pytest.raises(CommError):
            mpirun(body, 2)


class TestSplit:
    def test_even_odd_groups(self):
        def body(comm):
            sub = comm.split(color=comm.rank % 2)
            return (sub.rank, sub.size, sub.allgather(comm.rank))

        res = mpirun(body, 4)
        assert res.outputs[0] == (0, 2, [0, 2])
        assert res.outputs[1] == (0, 2, [1, 3])
        assert res.outputs[2] == (1, 2, [0, 2])

    def test_key_reorders(self):
        def body(comm):
            sub = comm.split(color=0, key=-comm.rank)  # reverse order
            return sub.rank

        res = mpirun(body, 3)
        assert res.outputs == [2, 1, 0]

    def test_none_color_opts_out(self):
        def body(comm):
            sub = comm.split(color=0 if comm.rank < 2 else None)
            if sub is None:
                return "out"
            return sub.size

        res = mpirun(body, 3)
        assert res.outputs == [2, 2, "out"]

    def test_consecutive_splits_independent(self):
        def body(comm):
            a = comm.split(color=comm.rank % 2)
            b = comm.split(color=comm.rank // 2)
            return (a.size, b.size)

        res = mpirun(body, 4)
        assert all(r == (2, 2) for r in res.outputs)

    def test_sub_comm_shares_clock(self):
        def body(comm):
            sub = comm.split(color=0)
            sub.clock.advance(1.0)
            return comm.clock.now >= 1.0

        res = mpirun(body, 2, network=ZERO_COST)
        assert all(res.outputs)


class TestTrace:
    def test_segments_recorded(self):
        def body(comm):
            comm.clock.advance(1.0 + comm.rank)
            comm.barrier()

        res = mpirun(body, 3, trace=True, network=ZERO_COST)
        assert res.traces is not None
        assert res.traces[0].total("compute") == pytest.approx(1.0)
        assert res.traces[0].total("wait") == pytest.approx(2.0)
        assert res.traces[2].total("wait") == pytest.approx(0.0)

    def test_comm_segments(self):
        def body(comm):
            comm.allgatherv(np.zeros(1_000_000))

        res = mpirun(body, 3, trace=True)
        assert res.traces[0].total("comm") > 0

    def test_no_traces_by_default(self):
        res = mpirun(lambda comm: None, 2)
        assert res.traces is None

    def test_render_gantt_shape(self):
        def body(comm):
            comm.clock.advance(1.0 + comm.rank)
            comm.barrier()

        res = mpirun(body, 3, trace=True, network=ZERO_COST)
        out = render_gantt(res.traces, width=40)
        lines = out.splitlines()
        assert len(lines) == 4
        assert "#" in lines[1]
        assert "." in lines[1]  # rank 0 waits

    def test_render_empty(self):
        assert render_gantt([]) == "(no traces)"

    def test_summary(self):
        trace = RankTrace(0, [Span("compute", 0.0, 2.0)])
        out = trace_summary([trace])
        assert "compute" in out and "2" in out

    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            Span("compute", 2.0, 1.0)
