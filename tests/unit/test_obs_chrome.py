"""Chrome trace-event export: valid JSON, per-rank tracks, monotone rows."""

import json
from collections import defaultdict

import pytest

from repro.mpi import mpirun
from repro.obs import Span, StageResult, chrome_trace
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count


@pytest.fixture(scope="module")
def gff_run_8(smoke_reads):
    """An 8-rank traced GraphFromFasta run (the acceptance scenario)."""
    counts = jellyfish_count(smoke_reads, 25).filtered(2)  # the solid table
    contigs = inchworm_assemble(counts, InchwormConfig(seed=1))
    return mpirun(
        mpi_graph_from_fasta,
        8,
        GffInputs(contigs=contigs, reads=smoke_reads),
        GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2),
        trace=True,
    )


class TestChromeExport:
    def test_round_trips_through_json(self, gff_run_8, tmp_path):
        path = gff_run_8.write_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["makespan_s"] == gff_run_8.makespan

    def test_one_track_per_rank_plus_driver(self, gff_run_8):
        doc = chrome_trace(gff_run_8)
        thread_names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert thread_names == {"driver"} | {f"rank {r}" for r in range(8)}

    def test_events_well_formed(self, gff_run_8):
        doc = chrome_trace(gff_run_8)
        complete = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert complete
        for ev in complete:
            assert ev["ts"] >= 0
            assert ev["dur"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)

    def test_clock_rows_monotone_per_rank_track(self, gff_run_8):
        # A rank's clock segments tile its timeline: sorted by ts, each
        # next segment starts at or after the previous one's end.
        doc = chrome_trace(gff_run_8)
        by_tid = defaultdict(list)
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X" and ev["cat"] in ("compute", "wait", "comm"):
                by_tid[ev["tid"]].append(ev)
        assert len(by_tid) == 8
        for events in by_tid.values():
            events.sort(key=lambda e: e["ts"])
            cursor = 0.0
            for ev in events:
                assert ev["ts"] >= cursor - 1e-6
                cursor = ev["ts"] + ev["dur"]

    def test_children_get_their_own_process(self):
        child = StageResult(stage="inner", makespan=1.0, spans=[Span("compute", 0.0, 1.0, track="rank 0")])
        parent = StageResult(stage="outer", makespan=2.0, children=[child])
        doc = chrome_trace(parent)
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert len(pids) == 2
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names == {"outer", "inner"}
