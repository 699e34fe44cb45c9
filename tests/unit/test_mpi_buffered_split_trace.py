"""Unit tests for tracing: the rank clock's spans and their two views."""

import numpy as np
import pytest

from repro.errors import ObsError
from repro.mpi import mpirun
from repro.obs import render_gantt
from repro.mpi.network import ZERO_COST
from repro.obs.critical import rank_clock_spans
from repro.obs.span import CLOCK_KINDS, Span


def _total(spans, kind):
    return sum(s.duration for s in spans if s.kind == kind)


class TestTrace:
    def test_segments_recorded(self):
        def body(comm):
            comm.clock.advance(1.0 + comm.rank)
            comm.barrier()

        res = mpirun(body, 3, trace=True, network=ZERO_COST)
        ranks = rank_clock_spans(res)
        assert _total(ranks[0], "compute") == pytest.approx(1.0)
        assert _total(ranks[0], "wait") == pytest.approx(2.0)
        assert _total(ranks[2], "wait") == pytest.approx(0.0)
        assert {s.track for s in ranks[1]} == {"rank 1"}

    def test_comm_segments(self):
        def body(comm):
            comm.allgatherv(np.zeros(1_000_000))

        res = mpirun(body, 3, trace=True)
        assert _total(rank_clock_spans(res)[0], "comm") > 0

    def test_no_traces_by_default(self):
        def body(comm):
            comm.clock.advance(1.0)
            comm.barrier()

        res = mpirun(body, 2)
        assert not [s for s in res.spans if s.kind in CLOCK_KINDS]
        with pytest.raises(ObsError):
            rank_clock_spans(res)

    def test_render_gantt_shape(self):
        def body(comm):
            comm.clock.advance(1.0 + comm.rank)
            comm.barrier()

        res = mpirun(body, 3, trace=True, network=ZERO_COST)
        out = render_gantt(res, width=40)
        lines = out.splitlines()
        assert len(lines) == 4
        assert "#" in lines[1]
        assert "." in lines[1]  # rank 0 waits

    def test_render_empty(self):
        with pytest.raises(ObsError):
            render_gantt(mpirun(lambda comm: None, 2))

    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            Span("compute", 2.0, 1.0)
