"""Unit tests for the driver-track stage spans (the Collectl-style trace)."""

import pytest

import repro.obs.span as span_mod
from repro.obs.span import (
    append_stage,
    host_stage,
    peak_ram_gb,
    render_stage_table,
    render_timeline,
    stage_seconds,
)


class TestAppendStage:
    def test_end(self):
        spans = []
        append_stage(spans, "w", 10.0)
        span = append_stage(spans, "x", 5.0, 1.0)
        assert span.stop == 15.0
        assert (span.kind, span.track, span.attr("ram_gb")) == ("stage", "driver", 1.0)
        assert spans[0].attrs is None  # no RAM given, none recorded

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            append_stage([], "x", -1.0, 1.0)

    def test_negative_ram_rejected(self):
        with pytest.raises(ValueError):
            append_stage([], "x", 1.0, -1.0)


class TestTimeline:
    def test_append_chains_start_times(self):
        spans = []
        append_stage(spans, "a", 10.0, 5.0)
        span = append_stage(spans, "b", 20.0, 3.0)
        assert span.start == 10.0
        assert spans[-1].stop == 30.0

    def test_peak_ram(self):
        spans = []
        append_stage(spans, "a", 1.0, 5.0)
        append_stage(spans, "b", 1.0, 50.0)
        assert peak_ram_gb(spans) == 50.0
        assert peak_ram_gb([]) == 0.0

    def test_duration_of_accumulates(self):
        spans = []
        append_stage(spans, "a", 1.0, 0.0)
        append_stage(spans, "b", 2.0, 0.0)
        append_stage(spans, "a", 3.0, 0.0)
        assert stage_seconds(spans)["a"] == 4.0

    def test_stages_in_first_seen_order(self):
        spans = []
        append_stage(spans, "b", 1.0, 0.0)
        append_stage(spans, "a", 1.0, 0.0)
        append_stage(spans, "b", 1.0, 0.0)
        assert list(stage_seconds(spans)) == ["b", "a"]


class TestClockChoice:
    """Pin which clock a host stage span uses (clock-fidelity audit).

    Stage intervals are *host wall* measurements of work running in
    other threads (mpirun ranks, OpenMP teams), so ``host_stage`` must
    read ``perf_counter`` — and must never consult the driver thread's
    ``thread_time``, which would read ~0 across an mpirun stage.
    """

    def test_stage_duration_comes_from_perf_counter(self, monkeypatch):
        ticks = iter([10.0, 15.0])
        monkeypatch.setattr(span_mod.time, "perf_counter", lambda: next(ticks))
        spans = []
        with host_stage(spans, "work"):
            pass
        assert spans[0].duration == pytest.approx(5.0)

    def test_stage_never_reads_thread_time(self, monkeypatch):
        def forbidden():
            raise AssertionError("host_stage must not use thread_time")

        monkeypatch.setattr(span_mod.time, "thread_time", forbidden)
        spans = []
        with host_stage(spans, "work"):
            pass
        assert spans[0].duration >= 0


class TestHostStage:
    def test_stage_records_duration_and_ram(self):
        # Host time only: nothing measures a live stage's RAM, so the span
        # carries none (the modelled timelines pass theirs to append_stage).
        spans = []
        append_stage(spans, "before", 2.0, 0.0)
        with host_stage(spans, "work") as st:
            pass
        span = spans[-1]
        assert st is None
        assert span.label == "work"
        assert span.attrs is None
        assert span.start == 2.0  # back to back, whatever ran in between
        assert span.duration >= 0


class TestReport:
    def _spans(self):
        spans = []
        append_stage(spans, "jellyfish", 9000.0, 110.0)
        append_stage(spans, "chrysalis", 180_000.0, 60.0)
        return spans

    def test_stage_table(self):
        # Time only: the table renders live spans, which carry no RAM.
        out = render_stage_table(self._spans())
        assert "jellyfish" in out
        assert "TOTAL" in out
        assert "RAM" not in out and "110.0" not in out

    def test_timeline_bars_scale(self):
        out = render_timeline(self._spans())
        lines = out.splitlines()
        assert lines[1].count("#") > lines[0].count("#")
        assert "@ 110.0 GB" in lines[0] and "peak 110.0 GB" in lines[-1]

    def test_empty_timeline(self):
        assert render_timeline([]) == "(empty timeline)"
