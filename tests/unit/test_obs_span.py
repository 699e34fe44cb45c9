"""Unit tests for the unified span type, StageResult and the metrics registry."""

import pytest

from repro.mpi.clock import VirtualClock
from repro.obs import MetricsRegistry, Span, StageResult
from repro.obs.span import CLOCK_KINDS


class TestSpan:
    def test_duration_and_name(self):
        s = Span("compute", 1.0, 3.5, label="gff:loop1")
        assert s.duration == 2.5
        assert s.name == "gff:loop1"
        assert Span("wait", 0.0, 1.0).name == "wait"

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            Span("compute", 2.0, 1.0)

    def test_attr_lookup_none_safe(self):
        assert Span("comm", 0.0, 1.0).attr("bytes", 0) == 0
        assert Span("comm", 0.0, 1.0, attrs={"bytes": 42}).attr("bytes") == 42

    def test_shifted_and_on_track(self):
        """A shifted copy moves in time and stays on its track."""
        s = Span("compute", 1.0, 2.0, track="rank 0")
        moved = s.shifted(3.0)
        assert (moved.start, moved.stop, moved.track) == (4.0, 5.0, "rank 0")
        assert s.start == 1.0  # original untouched

    def test_clock_kinds(self):
        assert CLOCK_KINDS == ("compute", "wait", "comm")


class TestRankTraceOrdering:
    """A rank's clock spans: one per forward move of its one clock."""

    def _clock(self):
        spans = []
        return VirtualClock(spans=spans, track="rank 0"), spans

    def test_out_of_order_add_is_sorted(self):
        # A sync to an earlier time (a peer already behind us) records
        # nothing, so the spans stay in time order without re-sorting.
        clock, spans = self._clock()
        clock.advance(1.0, kind="comm")
        clock.sync_to(5.0)
        clock.sync_to(2.0)
        clock.advance(2.0)
        assert [(s.kind, s.start) for s in spans] == [
            ("comm", 0.0), ("wait", 1.0), ("compute", 5.0)
        ]
        assert [s.start for s in spans] == sorted(s.start for s in spans)
        assert all(s.track == "rank 0" for s in spans)

    def test_end_is_max_stop_not_last(self):
        clock, spans = self._clock()
        clock.advance(9.0)
        clock.sync_to(0.5)  # behind the clock: no span, no move
        assert clock.now == 9.0
        assert max(s.stop for s in spans) == spans[-1].stop == 9.0

    def test_zero_duration_dropped(self):
        clock, spans = self._clock()
        clock.advance(0.0)
        clock.sync_to(0.0)
        assert spans == []


class TestStageResult:
    def _result(self):
        class Outputs:
            welds = ["w"]
            records = [1, 2]

        return StageResult(
            stage="gff",
            outputs=Outputs(),
            makespan=4.0,
            elapsed=[4.0, 2.0],
            metrics={"loop1_time": 1.25},
        )

    def test_deprecated_returns_and_stats_removed(self):
        r = StageResult(stage="x", outputs=[1, 2], comm=["s0"])
        assert r.outputs == [1, 2]
        assert r.comm == ["s0"]
        with pytest.raises(AttributeError):
            r.returns
        with pytest.raises(AttributeError):
            r.stats

    def test_delegates_to_outputs_not_metrics(self):
        # A metric has one spelling, ``r.metrics[name]``.
        r = self._result()
        assert r.welds == ["w"]
        assert r.metrics["loop1_time"] == 1.25
        with pytest.raises(AttributeError):
            r.loop1_time

    def test_missing_attribute_raises(self):
        with pytest.raises(AttributeError):
            self._result().nonexistent

    def test_underscore_names_never_delegate(self):
        # pickle/copy probe dunders via getattr; delegation must not trap them.
        with pytest.raises(AttributeError):
            self._result()._missing_private

    def test_imbalance(self):
        r = self._result()
        assert r.min_rank_time == 2.0
        assert r.imbalance == 2.0

    def test_all_spans_recurses_children(self):
        child = StageResult(stage="c", spans=[Span("compute", 0.0, 1.0)])
        parent = StageResult(stage="p", spans=[Span("stage", 0.0, 2.0)], children=[child])
        assert len(parent.all_spans()) == 2


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("runs")
        m.inc("runs", 2.0)
        assert m.get("runs") == 3.0

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("x", -1.0)
