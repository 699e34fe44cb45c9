"""What a stage reports about its own time is a view of its spans, and
the master's merged write is one function.

Every ``STAGE_TABLE`` row at three traced ranks on the smoke recipe:
``metrics["phase.<region>_s"]`` is the rank's same-label ``phase`` spans
summed (the per-rank form of the pipeline benchmark's ``S.phase.*_s``
layers; the region sets below are spelled here on purpose), only rank 0
reports an ``out_path``, and ``component_stage.write_merged`` — the
Jellyfish dump, Inchworm's and the back end's FASTA, RTT's ``cat`` —
retries, charges and recovers the same way for all four.
"""

from pathlib import Path

import pytest

from repro.mpi import CrashFault, FaultPlan, FlakyIO, mpirun
from repro.parallel import component_stage
from repro.parallel.driver import STAGE_TABLE, ParallelTrinityConfig, run_chain
from repro.parallel.recovery import mpirun_with_recovery
from repro.trinity import TrinityConfig

NPROCS = 3
REGIONS = {
    "jellyfish": {"count", "exchange", "merge", "gather"},
    "inchworm": {"components", "deal", "assemble", "merge"},
    "bowtie": {"split", "align", "merge"},
    "gff": {"setup", "loop1", "weld_index", "loop2", "components"},
    "rtt": {"setup", "loop"},
    "chrysalis": {"deal", "loop", "merge"},
}
#: row key -> the retry point / charged label of its ``write_merged``.
MERGED_WRITES = {
    "jellyfish": "jellyfish:write_dump",
    "inchworm": "inchworm:write_merged",
    "rtt": "rtt:concat",
    "chrysalis": "chrysalis:write_merged",
}
ROWS = {row.key: row for row in STAGE_TABLE}
FLAKY = FlakyIO(rate=1.0, max_consecutive=2)


@pytest.fixture(scope="module")
def cfg():
    return ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=NPROCS, nthreads=2)


@pytest.fixture(scope="module")
def chain(cfg, smoke_reads, tmp_path_factory):
    """The six stages, fault-free, traced, writing under one workdir."""
    return run_chain(
        cfg, smoke_reads,
        lambda row, inputs, config: mpirun(row.fn, NPROCS, inputs, config, trace=True),
        workdir=tmp_path_factory.mktemp("traced"),
    )


def _rank_spans(run, rank):
    return [s for s in run.spans if s.track == f"rank {rank}"]


@pytest.mark.parametrize("key", sorted(REGIONS))
def test_phase_seconds_are_the_ranks_phase_spans(chain, key):
    run = chain.runs[key]
    for rank, out in enumerate(run.outputs):
        summed = {}
        for span in _rank_spans(run, rank):
            if span.kind == "phase":
                region = span.label.split(":", 1)[1]
                summed[region] = summed.get(region, 0.0) + span.duration
        reported = {k: v for k, v in out.metrics.items() if k.startswith("phase.")}
        assert set(reported) == {f"phase.{region}_s" for region in REGIONS[key]}
        assert set(summed) == REGIONS[key]
        for region, seconds in summed.items():
            assert reported[f"phase.{region}_s"] == pytest.approx(seconds)
        # No second, hand-kept record beside it (Bowtie's three are
        # master-only measured windows, GFF's is the serial share).
        assert {k for k in out.metrics if k.endswith("_time")} <= {
            "split_time", "align_time", "merge_time", "serial_time",
        }


def test_gff_serial_time_is_the_serial_phase_spans(chain):
    run = chain.runs["gff"]
    for rank, out in enumerate(run.outputs):
        serial = [s for s in _rank_spans(run, rank) if s.kind == "phase" and s.attr("serial")]
        assert {s.label for s in serial} == {"gff:setup", "gff:weld_index", "gff:components"}
        assert out.metrics["serial_time"] == pytest.approx(sum(s.duration for s in serial))


def test_bowtie_align_time_is_its_compute_window(chain):
    run = chain.runs["bowtie"]
    for rank, out in enumerate(run.outputs):
        (window,) = [
            s for s in _rank_spans(run, rank) if s.kind == "compute" and s.label == "bowtie:align"
        ]
        assert out.metrics["align_time"] == pytest.approx(window.duration)


def test_only_rank_zero_reports_an_out_path(chain):
    for row in STAGE_TABLE:
        paths = [getattr(out.outputs, "out_path", None) for out in chain.runs[row.key].outputs]
        if row.file_key is None:
            assert paths == [None] * NPROCS
        else:
            assert paths[0] is not None and Path(paths[0]).exists()
            assert paths[1:] == [None] * (NPROCS - 1)


class TestWriteMerged:
    def test_callable_writer_retries_charges_and_parks_the_peers(self, tmp_path):
        calls = []

        def body(comm):
            return component_stage.write_merged(
                comm, "demo:write", tmp_path / "nested", "out.txt",
                lambda path: (calls.append(comm.rank), path.write_text("merged\n")),
            )

        run = mpirun(body, NPROCS, trace=True, faults=FaultPlan(flaky_io=FLAKY, seed=3))
        assert run.outputs == [tmp_path / "nested" / "out.txt", None, None]
        assert run.outputs[0].read_text() == "merged\n"
        assert calls == [0]  # the writer runs once, after the injected failures
        assert [s.label for s in run.spans if s.kind == "fault"] == [
            "fault:io:demo:write", "fault:retry:demo:write",
        ] * 2
        # One closing barrier per rank, one charged segment on the master.
        assert [c.n_collectives for c in run.comm] == [1] * NPROCS
        charged = [s for s in run.spans if s.kind == "compute"]
        assert [(s.label, s.track) for s in charged] == [("demo:write", "rank 0")]

    def test_without_a_workdir_nothing_happens(self):
        def body(comm):
            return component_stage.write_merged(
                comm, "demo:write", None, "out.txt", lambda path: 1 / 0
            )

        run = mpirun(body, 2)
        assert run.outputs == [None, None]
        assert [c.n_collectives for c in run.comm] == [0, 0]

    @pytest.mark.parametrize("key", sorted(MERGED_WRITES))
    def test_flaky_io_same_bytes_same_points_same_collectives(
        self, chain, cfg, key, tmp_path
    ):
        row, label = ROWS[key], MERGED_WRITES[key]
        clean = chain.runs[key]
        flaky = mpirun(
            row.fn, NPROCS, row.inputs(chain), row.config(cfg, tmp_path),
            trace=True, faults=FaultPlan(flaky_io=FLAKY, seed=7),
        )
        want, got = clean.outputs[0].outputs.out_path, flaky.outputs[0].outputs.out_path
        assert got.name == want.name and got.read_bytes() == want.read_bytes()
        assert flaky.metrics["n_collectives"] == clean.metrics["n_collectives"]
        retried = [s for s in flaky.spans if s.label == f"fault:retry:{label}"]
        assert len(retried) == 2 and {s.track for s in retried} == {"rank 0"}
        for run in (clean, flaky):
            charged = [s for s in run.spans if s.kind == "compute" and s.label == label]
            assert [s.track for s in charged] == ["rank 0"]

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("key", sorted(MERGED_WRITES))
    def test_master_crash_inside_the_retry_recovers_the_same_bytes(
        self, chain, cfg, key, tmp_path
    ):
        """The master dies mid-backoff at the merged write; the survivors
        relaunch, one of them is the new master, same file."""
        row, label = ROWS[key], MERGED_WRITES[key]
        inputs = row.inputs(chain)
        probe = mpirun(
            row.fn, NPROCS, inputs, row.config(cfg, tmp_path / "probe"),
            faults=FaultPlan(flaky_io=FLAKY, seed=7),
        )
        backoff = next(s for s in probe.spans if s.label == f"fault:retry:{label}")
        plan = FaultPlan(
            crashes=(CrashFault(rank=0, at_time=(backoff.start + backoff.stop) / 2),),
            flaky_io=FLAKY, seed=7,
        )
        rec = mpirun_with_recovery(
            row.fn, NPROCS, inputs, row.config(cfg, tmp_path / "rec"), faults=plan
        )
        assert rec.metrics["faults.rank_losses"] == 1.0
        assert len(rec.outputs) == NPROCS - 1
        want = chain.runs[key].outputs[0].outputs.out_path
        assert rec.outputs[0].outputs.out_path.read_bytes() == want.read_bytes()
        assert [out.outputs.out_path for out in rec.outputs[1:]] == [None] * (NPROCS - 2)
