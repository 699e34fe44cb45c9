"""What a stage reports about its own time is a view of its spans, and
every merged file is one striped write.

Every ``STAGE_TABLE`` row at three traced ranks on the smoke recipe:
``metrics["phase.<region>_s"]`` is the rank's same-label ``phase`` spans
summed (the per-rank form of the pipeline benchmark's ``S.phase.*_s``
layers; the region sets below are spelled here on purpose), only rank 0
reports an ``out_path``, and ``component_stage.write_merged`` — the
Jellyfish dump, Inchworm's FASTA, Bowtie's SAM, RTT's assignments and the
back end's FASTA — retries, charges and recovers the same way for all
five: every rank renders, retries and pays for its own piece.
"""

import sys
import threading
from pathlib import Path

import pytest

from repro.errors import RankCrash
from repro.mpi import CrashFault, FaultPlan, FlakyIO, SimComm, mpirun
from repro.obs.critical import critical_path
from repro.parallel import component_stage
from repro.parallel.mpi_jellyfish import JellyfishInputs, JellyfishStageConfig, mpi_jellyfish
from repro.parallel.driver import STAGE_TABLE, ParallelTrinityConfig, run_chain
from repro.parallel.recovery import mpirun_with_recovery
from repro.trinity import TrinityConfig
from repro.trinity.jellyfish import JellyfishConfig, jellyfish_dump

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
    "bowtie": "bowtie:write_sam",
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
        # No second, hand-kept record of a time beside the spans.
        assert not [k for k in out.metrics if k.endswith("_time")]


def test_gff_serial_time_is_the_serial_phase_spans(chain):
    """Fig 8's serial share is read off the ``serial=True`` phase spans."""
    run = chain.runs["gff"]
    for rank in range(NPROCS):
        serial = [s for s in _rank_spans(run, rank) if s.kind == "phase" and s.attr("serial")]
        assert {s.label for s in serial} == {"gff:setup", "gff:weld_index", "gff:components"}
    report = critical_path(run)
    serial = [
        s for s in _rank_spans(run, report.critical_rank)
        if s.kind == "phase" and s.attr("serial")
    ]
    assert report.serial_time > 0
    assert report.serial_time == pytest.approx(sum(s.duration for s in serial))


def test_bowtie_align_time_is_its_compute_window(chain):
    """Every rank's align phase holds its seeds and align windows."""
    run = chain.runs["bowtie"]
    for rank in range(NPROCS):
        spans = _rank_spans(run, rank)
        (phase,) = [s for s in spans if s.kind == "phase" and s.label == "bowtie:align"]
        (window,) = [s for s in spans if s.kind == "compute" and s.label == "bowtie:align"]
        assert phase.start <= window.start <= window.stop <= phase.stop


def test_only_rank_zero_reports_an_out_path(chain):
    for row in STAGE_TABLE:
        paths = [getattr(out.outputs, "out_path", None) for out in chain.runs[row.key].outputs]
        if row.file_key is None:
            assert paths == [None] * NPROCS
        else:
            assert paths[0] is not None and Path(paths[0]).exists()
            assert paths[1:] == [None] * (NPROCS - 1)


class TestWriteMerged:
    def test_each_rank_retries_and_pays_its_piece(self, tmp_path):
        renders = []

        def body(comm):
            def render():
                renders.append(comm.rank)
                return f"rank {comm.rank}\n".encode() * (comm.rank + 1) if comm.rank != 1 else b""

            return component_stage.write_merged(
                comm, "demo:write", tmp_path / "nested", "out.txt", render
            )

        run = mpirun(body, NPROCS, trace=True, faults=FaultPlan(flaky_io=FLAKY, seed=3))
        out = tmp_path / "nested" / "out.txt"
        assert run.outputs == [out, None, None]
        # The pieces land in rank order (rank 1's is empty); no temporary stays.
        assert out.read_text() == "rank 0\n" + "rank 2\n" * 3
        assert [p.name for p in out.parent.iterdir()] == ["out.txt"]
        assert sorted(renders) == list(range(NPROCS))  # once each, not per attempt
        for rank in range(NPROCS):
            spans = _rank_spans(run, rank)
            assert [s.label for s in spans if s.kind == "fault"] == [
                "fault:io:demo:write", "fault:retry:demo:write",
            ] * 2
            assert [s.label for s in spans if s.kind == "compute"] == ["demo:write"]
        # One allgather of the piece lengths and one closing barrier per rank.
        assert [c.n_collectives for c in run.comm] == [2] * NPROCS

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
        tracks = [f"rank {r}" for r in range(NPROCS)]
        retried = [s.track for s in flaky.spans if s.label == f"fault:retry:{label}"]
        assert sorted(retried) == sorted(tracks * 2)
        for run in (clean, flaky):
            charged = [s.track for s in run.spans if s.kind == "compute" and s.label == label]
            assert sorted(charged) == tracks

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
        backoff = next(
            s for s in probe.spans if s.label == f"fault:retry:{label}" and s.track == "rank 0"
        )
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
        assert not list((tmp_path / "rec").glob("*.tmp"))

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("when", ["retry", "barrier"])
    @pytest.mark.parametrize("nprocs", [3, 8])
    def test_peer_crash_at_its_write_recovers(
        self, smoke_reads, smoke_counts, nprocs, when, tmp_path, monkeypatch
    ):
        """The last rank dies at its piece — mid-retry, with its peers'
        pieces written, or entering the closing barrier after its own — and
        the survivors' relaunch writes the serial dump, no temporary left."""
        serial = tmp_path / "serial.kmers.fa"
        jellyfish_dump(smoke_counts, serial)
        inputs, last = JellyfishInputs(reads=smoke_reads), nprocs - 1
        plan = None
        if when == "retry":
            probe = mpirun(
                mpi_jellyfish, nprocs, inputs, _dump_config(tmp_path / "probe"),
                trace=True, faults=FaultPlan(flaky_io=FLAKY, seed=7),
            )
            backoff = next(
                s for s in probe.spans
                if s.label == "fault:retry:jellyfish:write_dump" and s.track == f"rank {last}"
            )
            plan = FaultPlan(
                crashes=(CrashFault(rank=last, at_time=(backoff.start + backoff.stop) / 2),),
                flaky_io=FLAKY, seed=7,
            )
        else:
            crashed, barrier = [], SimComm.barrier

            def crashing(comm):
                if threading.current_thread().name == f"simmpi-rank-{last}" and not crashed:
                    crashed.append(comm.rank)
                    raise RankCrash("crashed between its write and the closing barrier")
                return barrier(comm)

            monkeypatch.setattr(SimComm, "barrier", crashing)
        wd = tmp_path / "rec"
        rec = mpirun_with_recovery(mpi_jellyfish, nprocs, inputs, _dump_config(wd), faults=plan)
        assert rec.metrics["faults.rank_losses"] == 1.0
        assert len(rec.outputs) == nprocs - 1
        assert rec.outputs[0].outputs.out_path.read_bytes() == serial.read_bytes()
        assert [p.name for p in wd.iterdir()] == ["jellyfish.kmers.fa"]

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_longer_stale_files_never_show_through(
        self, smoke_reads, smoke_counts, nprocs, tmp_path
    ):
        """A longer file at the target and a longer temporary (what a
        crashed attempt leaves) are both gone after one write; the rank
        threads switch every microsecond while they share the file."""
        serial = tmp_path / "serial.kmers.fa"
        jellyfish_dump(smoke_counts, serial)
        wd = tmp_path / "wd"
        wd.mkdir()
        stale = b"N" * (2 * serial.stat().st_size)
        for name in ("jellyfish.kmers.fa", "jellyfish.kmers.fa.tmp"):
            (wd / name).write_bytes(stale)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = mpirun(
                mpi_jellyfish, nprocs, JellyfishInputs(reads=smoke_reads), _dump_config(wd)
            )
        finally:
            sys.setswitchinterval(interval)
        assert run.outputs[0].outputs.out_path.read_bytes() == serial.read_bytes()
        assert [p.name for p in wd.iterdir()] == ["jellyfish.kmers.fa"]


def _dump_config(workdir):
    """The stage config whose dump is ``smoke_counts``' serial one."""
    return JellyfishStageConfig(jellyfish=JellyfishConfig(k=25), workdir=workdir)
