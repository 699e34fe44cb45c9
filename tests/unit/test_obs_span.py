"""Unit tests for the unified span type, StageResult and the metrics registry."""

import pytest

from repro.mpi.trace import RankTrace
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
        s = Span("compute", 1.0, 2.0, track="rank 0")
        assert s.shifted(3.0).start == 4.0
        assert s.on_track("rank 1").track == "rank 1"
        assert s.track == "rank 0"  # original untouched

    def test_dict_round_trip(self):
        s = Span("phase", 0.5, 1.5, "gff:setup", "rank 2", {"serial": True})
        assert Span.from_dict(s.to_dict()) == s

    def test_clock_kinds(self):
        assert CLOCK_KINDS == ("compute", "wait", "comm")


class TestRankTraceOrdering:
    def test_out_of_order_add_is_sorted(self):
        # Regression: end/render_gantt assumed time-sorted segments; a
        # replayed buffered cost may arrive out of order.
        t = RankTrace(0)
        t.add("compute", 5.0, 7.0)
        t.add("comm", 1.0, 2.0)
        assert [s.start for s in t.segments] == [1.0, 5.0]
        assert t.end == 7.0

    def test_end_is_max_stop_not_last(self):
        t = RankTrace(0)
        t.add("compute", 0.0, 9.0)
        t.add("comm", 0.5, 1.0)  # starts after 0.0 -> appended after sort key
        assert t.end == 9.0

    def test_zero_duration_dropped(self):
        t = RankTrace(0)
        t.add("compute", 1.0, 1.0)
        assert t.segments == []


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

    def test_delegates_to_outputs_then_metrics(self):
        r = self._result()
        assert r.welds == ["w"]
        assert r.loop1_time == 1.25

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

    def test_gauge_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("nprocs", 4)
        m.set_gauge("nprocs", 8)
        assert m.get("nprocs") == 8.0

    def test_merge_adds_counters_overwrites_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        a.set_gauge("g", 1)
        b.set_gauge("g", 5)
        a.merge(b)
        assert a.get("n") == 3.0
        assert a.get("g") == 5.0

    def test_render_and_reset(self):
        m = MetricsRegistry()
        assert m.render() == "(no metrics recorded)"
        m.inc("bytes", 10)
        assert "bytes" in m.render()
        m.reset()
        assert m.render() == "(no metrics recorded)"
