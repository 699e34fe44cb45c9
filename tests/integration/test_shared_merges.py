"""Replicated results are one object.

After its collective, every stage runs a pure merge of the pooled
snapshot — the same value on every rank.  Each merge is one
``comm.shared`` entry, so the ranks of one ``mpirun`` hold the *same*
merged object, not p copies of it: per ``STAGE_TABLE`` row at three
ranks on the smoke recipe, the merged outputs are identical objects and
the eight-rank outputs pickle to about the one-rank size.  A crash on the
way into a shared merge, or inside one, recovers to the serial bytes.
"""

import pickle
import sys
import threading
import time
from importlib import import_module

import pytest

from repro.errors import CommAbandonedError, MpiAbortError, RankCrash
from repro.mpi import CrashFault, FaultPlan, mpirun
from repro.parallel.driver import STAGE_TABLE, ParallelTrinityConfig, run_chain
from repro.parallel.recovery import mpirun_with_recovery
from repro.seq.fasta import write_fasta
from repro.trinity import TrinityConfig
from repro.trinity.inchworm import inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count, jellyfish_dump

NPROCS = 3

#: Each row's merged outputs: what the collective + merge put on every rank.
MERGED = {
    "jellyfish": ("counts",),
    "inchworm": ("contigs",),
    "bowtie": ("hits", "scaffolds"),
    "gff": ("welds", "pairs", "components"),
    "rtt": ("assignments",),
    "chrysalis": ("transcripts", "quant_stats"),
}


@pytest.fixture(scope="module")
def cfg():
    return ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=NPROCS, nthreads=2)


@pytest.fixture(scope="module")
def chain(cfg, smoke_reads):
    """The six stages at three ranks: each row's inputs and run."""
    return run_chain(
        cfg, smoke_reads, lambda row, inputs, config: mpirun(row.fn, NPROCS, inputs, config)
    )


@pytest.mark.parametrize("row", STAGE_TABLE, ids=lambda row: row.key)
def test_merged_outputs_are_one_object_on_every_rank(chain, row):
    outs = [rank.outputs for rank in chain.runs[row.key].outputs]
    assert len(outs) == NPROCS
    for name in MERGED[row.key]:
        first = getattr(outs[0], name)
        assert all(getattr(out, name) is first for out in outs[1:]), name


@pytest.mark.parametrize("row", STAGE_TABLE, ids=lambda row: row.key)
def test_eight_ranks_pickle_to_about_one_ranks_outputs(chain, cfg, row):
    """A count: the per-rank outputs of an eight-rank run pickle to at most
    1.5x a one-rank run's (shared objects are stored once)."""
    inputs, config = row.inputs(chain), row.config(cfg, None)

    def outputs_bytes(nprocs):
        run = mpirun(row.fn, nprocs, inputs, config)
        return len(pickle.dumps([rank.outputs for rank in run.outputs]))

    assert outputs_bytes(8) <= 1.5 * outputs_bytes(1)


def _serial_files(chain, cfg, tmp_path):
    """The serial Jellyfish dump and Inchworm contig FASTA bytes."""
    tcfg = cfg.trinity
    counts = jellyfish_count(chain.reads, tcfg.k)
    jellyfish_dump(counts, tmp_path / "serial.kmers.fa")
    contigs = inchworm_assemble(counts.filtered(tcfg.min_kmer_count), tcfg.inchworm())
    write_fasta(tmp_path / "serial.contigs.fa", [c.to_record() for c in contigs])
    return {
        "jellyfish": (tmp_path / "serial.kmers.fa").read_bytes(),
        "inchworm": (tmp_path / "serial.contigs.fa").read_bytes(),
    }


ROWS = {row.key: row for row in STAGE_TABLE}


def _park_peers_in_shared(timeout=30.0):
    """Block until every other rank thread waits inside ``SimComm.shared``.

    A peer released from the merge's allgather barrier but not yet
    scheduled would otherwise see the abort as a broken barrier; waiting
    makes the crash land on peers that are all in their shared wait.
    """
    me = threading.current_thread()
    peers = [t for t in threading.enumerate() if t.name.startswith("simmpi-rank-") and t is not me]

    def in_shared(frame):
        while frame is not None and frame.f_code.co_name != "shared":
            frame = frame.f_back
        return frame is not None

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        frames = sys._current_frames()
        if all(in_shared(frames.get(t.ident)) for t in peers):
            return
        time.sleep(0.01)


@pytest.mark.timeout(120)
@pytest.mark.parametrize(
    "key, phase", [("jellyfish", "jellyfish:gather"), ("inchworm", "inchworm:merge")]
)
def test_crash_entering_a_shared_merge_recovers(chain, cfg, tmp_path, key, phase):
    row = ROWS[key]
    wd = tmp_path / "wd"
    rec = mpirun_with_recovery(
        row.fn, NPROCS, row.inputs(chain), row.config(cfg, wd),
        faults=FaultPlan(crashes=(CrashFault(rank=0, phase=phase),)),
    )
    assert len(rec.outputs) == NPROCS - 1 and rec.metrics["faults.rank_losses"] == 1.0
    serial = _serial_files(chain, cfg, tmp_path)
    assert rec.outputs[0].outputs.out_path.read_bytes() == serial[key]


@pytest.mark.timeout(120)
@pytest.mark.parametrize(
    "key, name", [("jellyfish", "_concatenate_slices"), ("inchworm", "keyed_contigs")]
)
def test_crash_inside_a_shared_merge_abandons_its_waiters(
    chain, cfg, tmp_path, monkeypatch, key, name
):
    """Whichever rank computes the shared merge dies inside it.  Its peers,
    waiting on the shared entry, raise ``CommAbandonedError`` naming it
    (they do not hang), and the relaunch on the survivors gives the serial
    bytes."""
    row = ROWS[key]
    module = import_module(row.fn.__module__)
    build, crashed = getattr(module, name), []

    def crash_once(*args, **kwargs):
        if not crashed:
            crashed.append(threading.current_thread().name)
            _park_peers_in_shared()
            raise RankCrash(f"crashed inside the shared {key} merge")
        return build(*args, **kwargs)

    monkeypatch.setattr(module, name, crash_once)
    with pytest.raises(MpiAbortError) as abort:
        mpirun(row.fn, NPROCS, row.inputs(chain), row.config(cfg, None))
    assert isinstance(abort.value.__cause__, RankCrash)
    assert crashed == [f"simmpi-rank-{abort.value.rank}"]
    waiters = abort.value.secondaries
    assert len(waiters) == NPROCS - 1
    assert all(isinstance(s.exc, CommAbandonedError) for s in waiters)
    assert all(f"shared('{key}:" in str(s.exc) for s in waiters), [str(s.exc) for s in waiters]

    del crashed[:]
    wd = tmp_path / "wd"
    rec = mpirun_with_recovery(row.fn, NPROCS, row.inputs(chain), row.config(cfg, wd))
    assert len(crashed) == 1 and len(rec.outputs) == NPROCS - 1
    assert rec.metrics["faults.rank_losses"] == 1.0
    assert rec.outputs[0].outputs.out_path.read_bytes() == _serial_files(chain, cfg, tmp_path)[key]

