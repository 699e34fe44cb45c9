"""Fault recovery end-to-end: a crashed-and-recovered MPI stage produces
*identical* outputs to a fault-free run — the paper's chunked round-robin
map (GFF/RTT) and PyFasta re-split (Bowtie) redistribute the dead rank's
work with no stage-body changes — plus stage-level checkpoint/restart in
the driver, the driver run's own record of both, and the fault-sweep
experiment/CLI."""

import pickle
import shutil
import threading
from dataclasses import replace

import pytest

from repro.errors import CommAbandonedError, FaultError, MpiAbortError, ObsError, RankCrash
from repro.mpi import CrashFault, FaultPlan, FlakyIO, mpirun
from repro.mpi.datatypes import pack_strings
from repro.mpi.network import NetworkModel
from repro.obs.critical import critical_path
from repro.parallel import ParallelTrinityDriver, mpirun_with_recovery
from repro.parallel.driver import ParallelTrinityConfig
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieStageConfig, mpi_bowtie
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.parallel.mpi_reads_to_transcripts import (
    RttInputs,
    RttStageConfig,
    mpi_reads_to_transcripts,
)
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig
from repro.trinity.bowtie import BowtieConfig, ReadSeeds
from repro.trinity.inchworm import inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count

NPROCS = 8


@pytest.fixture(scope="module")
def tcfg():
    return TrinityConfig(seed=1)


@pytest.fixture(scope="module")
def contigs(smoke_reads, tcfg):
    solid = jellyfish_count(smoke_reads, tcfg.k).filtered(tcfg.min_kmer_count)
    return inchworm_assemble(solid, tcfg.inchworm())


@pytest.fixture(scope="module")
def gff_fault_free(smoke_reads, contigs, tcfg):
    return mpirun(
        mpi_graph_from_fasta, NPROCS,
        GffInputs(contigs=contigs, reads=smoke_reads),
        GffStageConfig(gff=tcfg.gff(), nthreads=2),
    )


def canonical_welds(welds) -> bytes:
    """Byte-canonical form of a weld multiset (pooling order varies with
    the rank count, so compare packed *sorted* candidates)."""
    packed, lengths = pack_strings(
        sorted(
            f"{w.left_flank},{w.seed},{w.right_flank},{w.owner},{w.seed_code}"
            for w in welds
        )
    )
    return bytes(packed) + lengths.tobytes()


def assert_same_gff(out, base) -> None:
    assert canonical_welds(out.welds) == canonical_welds(base.welds)
    assert out.pairs == base.pairs
    assert out.components == base.components


class TestGffRecovery:
    @pytest.mark.timeout(120)
    def test_phase_crash_recovers_byte_identical_welds(
        self, smoke_reads, contigs, tcfg, gff_fault_free
    ):
        plan = FaultPlan(crashes=(CrashFault(rank=3, phase="gff:loop1"),))
        rec = mpirun_with_recovery(
            mpi_graph_from_fasta, NPROCS,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=tcfg.gff(), nthreads=2),
            faults=plan,
        )
        base = gff_fault_free.outputs[0]
        out = rec.outputs[0]
        assert len(rec.outputs) == NPROCS - 1  # reran on the survivors
        assert canonical_welds(out.welds) == canonical_welds(base.welds)
        assert out.pairs == base.pairs
        assert out.components == base.components

    @pytest.mark.timeout(120)
    def test_setup_crash_recovers_identical_outputs(
        self, smoke_reads, contigs, tcfg, gff_fault_free
    ):
        """The rank dies entering ``gff:setup``; its peers are released from
        the weldmer-pooling collective inside it, and the survivors re-deal
        the read blocks — the deal is a pure function of ``p``."""
        plan = FaultPlan(crashes=(CrashFault(rank=3, phase="gff:setup"),))
        rec = mpirun_with_recovery(
            mpi_graph_from_fasta, NPROCS,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=tcfg.gff(), nthreads=2),
            faults=plan,
        )
        assert rec.metrics["faults.rank_losses"] == 1.0
        assert [s.label for s in rec.spans if s.track == "recovery"] == [
            "fault:lost-rank3:attempt1"
        ]
        assert len(rec.outputs) == NPROCS - 1
        for out in rec.outputs:
            assert_same_gff(out, gff_fault_free.outputs[0])

    @pytest.mark.timeout(120)
    def test_flaky_read_fasta_is_absorbed(self, smoke_reads, contigs, tcfg, gff_fault_free):
        """Every attempt at the stage's one I/O point fails until FlakyIO's
        consecutive-failure bound: two retries per rank, same bytes."""
        run = mpirun(
            mpi_graph_from_fasta, NPROCS,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=tcfg.gff(), nthreads=2),
            faults=FaultPlan(flaky_io=FlakyIO(rate=1.0, max_consecutive=2), seed=7),
        )
        retries = [s for s in run.spans if s.label == "fault:retry:gff:read_fasta"]
        assert sorted(s.track for s in retries) == sorted(
            f"rank {r}" for r in range(NPROCS) for _ in range(2)
        )
        assert {s.label for s in run.spans if s.kind == "fault"} == {
            "fault:io:gff:read_fasta", "fault:retry:gff:read_fasta",
        }
        for out in run.outputs:
            assert_same_gff(out, gff_fault_free.outputs[0])

    @pytest.mark.timeout(120)
    def test_makespan_accumulates_and_recovery_spans_emitted(
        self, smoke_reads, contigs, tcfg, gff_fault_free
    ):
        plan = FaultPlan(crashes=(CrashFault(rank=3, phase="gff:loop1"),))
        rec = mpirun_with_recovery(
            mpi_graph_from_fasta, NPROCS,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=tcfg.gff(), nthreads=2),
            faults=plan,
        )
        assert rec.metrics["faults.rank_losses"] == 1.0
        with pytest.raises(ObsError):  # the spans join attempts on different rank counts
            critical_path(rec)
        recovery_spans = [s for s in rec.spans if s.track == "recovery"]
        assert len(recovery_spans) == 1
        assert recovery_spans[0].attrs["dead_rank"] == 3
        # The failed attempt's makespan is banked, with no restart overhead,
        # and the final attempt rides on top of it.
        banked = rec.metrics["faults.recovery_overhead_s"]
        assert recovery_spans[0].start == 0.0 and recovery_spans[0].stop == banked > 0.0
        assert rec.makespan == max(rec.elapsed) > banked
        crash_spans = [s for s in rec.spans if s.label.startswith("fault:crash")]
        assert crash_spans, "the failed attempt's crash span must be kept"

    @pytest.mark.timeout(120)
    def test_unrecoverable_when_losses_exhausted(self, smoke_reads, contigs, tcfg):
        plan = FaultPlan(crashes=(CrashFault(rank=1, phase="gff:loop1"),))
        with pytest.raises(MpiAbortError) as ei:
            mpirun_with_recovery(
                mpi_graph_from_fasta, 2,
                GffInputs(contigs=contigs, reads=smoke_reads),
                GffStageConfig(gff=tcfg.gff(), nthreads=2),
                faults=plan,
                max_rank_losses=0,
            )
        assert isinstance(ei.value.__cause__, RankCrash)

    def test_negative_loss_budget_rejected(self, smoke_reads, contigs, tcfg):
        with pytest.raises(FaultError):
            mpirun_with_recovery(
                mpi_graph_from_fasta, 2,
                GffInputs(contigs=contigs, reads=smoke_reads),
                GffStageConfig(gff=tcfg.gff(), nthreads=2),
                max_rank_losses=-1,
            )

    @pytest.mark.timeout(120)
    def test_recovery_is_deterministic(self, smoke_reads, contigs, tcfg):
        # Compute windows are charged at measured host time, so the whole
        # stage may finish inside any fixed positive crash time on a fast
        # host; a crash at t=0 fires at rank 2's first clock move, always.
        plan = FaultPlan(crashes=(CrashFault(rank=2, at_time=0.0),))

        def run():
            res = mpirun_with_recovery(
                mpi_graph_from_fasta, 4,
                GffInputs(contigs=contigs, reads=smoke_reads),
                GffStageConfig(gff=tcfg.gff(), nthreads=2),
                faults=plan,
            )
            fault_labels = sorted(s.label for s in res.spans if s.kind == "fault")
            return canonical_welds(res.outputs[0].welds), fault_labels

        # Same plan + workload => identical outputs and fault/recovery spans.
        first = run()
        assert first[1] == ["fault:crash:rank2", "fault:lost-rank2:attempt1"]
        assert run() == first


class TestRttAndBowtieRecovery:
    @pytest.mark.timeout(120)
    def test_rtt_recovery_equivalence(self, smoke_reads, contigs, tcfg, gff_fault_free):
        components = gff_fault_free.outputs[0].components
        base = mpirun(
            mpi_reads_to_transcripts, NPROCS,
            RttInputs(reads=smoke_reads, contigs=contigs, components=components),
            RttStageConfig(rtt=tcfg.rtt(), nthreads=2),
        )
        plan = FaultPlan(crashes=(CrashFault(rank=5, phase="rtt:loop"),))
        rec = mpirun_with_recovery(
            mpi_reads_to_transcripts, NPROCS,
            RttInputs(reads=smoke_reads, contigs=contigs, components=components),
            RttStageConfig(rtt=tcfg.rtt(), nthreads=2),
            faults=plan,
        )
        key = lambda a: (a.read_index, a.component, a.shared_kmers)
        assert list(map(key, rec.outputs[0].assignments)) == list(
            map(key, base.outputs[0].assignments)
        )
        assert rec.metrics["faults.rank_losses"] == 1.0

    @pytest.mark.timeout(120)
    def test_bowtie_resplit_recovery_equivalence(self, smoke_reads, contigs):
        inputs = BowtieInputs(reads=smoke_reads, contigs=contigs)
        config = BowtieStageConfig(bowtie=BowtieConfig())
        base = mpirun(mpi_bowtie, NPROCS, inputs, config)
        plan = FaultPlan(crashes=(CrashFault(rank=4, phase="bowtie:align"),))
        rec = mpirun_with_recovery(mpi_bowtie, NPROCS, inputs, config, faults=plan)
        # Re-split over the survivors must yield the identical merged SAM.
        assert rec.outputs[0].records == base.outputs[0].records

    @pytest.mark.timeout(120)
    def test_bowtie_crash_of_the_read_seed_owner(self, smoke_reads, contigs, monkeypatch):
        """The owner of one read block dies inside its seed-table build.
        Its peers — each with its own block built — are abandoned in the
        ``allgatherv`` that pools the blocks (``CommAbandonedError``), the
        abort names the owner's crash, and the re-split and re-cut over
        the survivors yields the identical merged SAM."""
        inputs = BowtieInputs(reads=smoke_reads, contigs=contigs)
        config = BowtieStageConfig(bowtie=BowtieConfig())
        base = mpirun(mpi_bowtie, NPROCS, inputs, config)
        build = ReadSeeds.build
        victim, crashed, built = "simmpi-rank-3", [], []

        def crash_one_block(reads, cfg):
            rank = threading.current_thread().name
            if rank == victim and not crashed:
                crashed.append(rank)
                raise RankCrash("crashed building a read block's seeds")
            built.append(len(reads))
            return build(reads, cfg)

        monkeypatch.setattr(ReadSeeds, "build", crash_one_block)
        with pytest.raises(MpiAbortError) as abort:
            mpirun(mpi_bowtie, NPROCS, inputs, config)
        assert isinstance(abort.value.__cause__, RankCrash)
        assert crashed == [f"simmpi-rank-{abort.value.rank}"] == [victim]
        assert len(abort.value.secondaries) == NPROCS - 1
        assert all(isinstance(s.exc, CommAbandonedError) for s in abort.value.secondaries)
        # Whoever got that far had built only its own 1/p of the reads.
        assert len(built) < NPROCS and sum(built) < len(smoke_reads)

        del crashed[:], built[:]
        rec = mpirun_with_recovery(mpi_bowtie, NPROCS, inputs, config)
        assert crashed == [victim]
        # The relaunch re-cuts the reads over the seven survivors.
        assert sum(built[1 - NPROCS :]) == len(smoke_reads)
        assert rec.metrics["faults.rank_losses"] == 1.0
        assert len(rec.outputs) == NPROCS - 1
        assert rec.outputs[0].records == base.outputs[0].records


class TestDriverFaultsAndCheckpoints:
    @pytest.mark.timeout(300)
    def test_driver_run_with_faults_matches_fault_free(self, smoke_reads):
        base = ParallelTrinityDriver(
            ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=4, nthreads=2)
        ).run(smoke_reads)
        plan = FaultPlan(crashes=(CrashFault(rank=2, phase="gff:loop1"),))
        faulted = ParallelTrinityDriver(
            ParallelTrinityConfig(
                trinity=TrinityConfig(seed=1), nprocs=4, nthreads=2, faults=plan
            )
        ).run(smoke_reads)
        assert sorted(t.seq for t in faulted.outputs.transcripts) == sorted(
            t.seq for t in base.outputs.transcripts
        )

    @pytest.mark.timeout(300)
    def test_driver_setup_crash_at_8_ranks_matches_fault_free(self, smoke_reads):
        """Final transcripts, in order, after a rank is lost inside the
        sharded GFF setup."""
        base = ParallelTrinityDriver(
            ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=NPROCS, nthreads=2)
        ).run(smoke_reads)
        plan = FaultPlan(crashes=(CrashFault(rank=3, phase="gff:setup"),))
        faulted = ParallelTrinityDriver(
            ParallelTrinityConfig(
                trinity=TrinityConfig(seed=1), nprocs=NPROCS, nthreads=2, faults=plan
            )
        ).run(smoke_reads)
        assert faulted.metrics["faults.rank_losses"] == 1.0
        assert base.metrics["faults.rank_losses"] == 0.0
        assert _seqs(faulted) == _seqs(base)

    @pytest.mark.timeout(300)
    def test_checkpoint_restart(self, smoke_reads, tmp_path):
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=2, nthreads=2)
        ckpt = tmp_path / "ckpts"
        first = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        written = sorted(p.name for p in ckpt.glob("*.ckpt.pkl"))
        assert written == [
            "mpi_bowtie.ckpt.pkl",
            "mpi_chrysalis_backend.ckpt.pkl",
            "mpi_graph_from_fasta.ckpt.pkl",
            "mpi_inchworm.ckpt.pkl",
            "mpi_jellyfish.ckpt.pkl",
            "mpi_reads_to_transcripts.ckpt.pkl",
        ]
        assert _ckpt_counters(first) == (0, 6)
        second = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        assert _ckpt_counters(second) == (6, 0)
        assert sorted(t.seq for t in second.outputs.transcripts) == sorted(
            t.seq for t in first.outputs.transcripts
        )

    @pytest.mark.timeout(300)
    def test_checkpoint_restart_at_8_ranks_keeps_the_shared_outputs(
        self, smoke_reads, tmp_path
    ):
        """Each stage is one ``pickle.dump``, which keeps object identity: a
        restored eight-rank run writes the same ``Trinity.fasta``, and its
        ranks still hold one merged object per output, not eight."""
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=NPROCS, nthreads=2)
        ckpt, wd = tmp_path / "ckpts", tmp_path / "wd"
        ParallelTrinityDriver(cfg).run(smoke_reads, workdir=wd, checkpoint_dir=ckpt)
        cold = (wd / "Trinity.fasta").read_bytes()
        warm = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=wd, checkpoint_dir=ckpt)
        assert _ckpt_counters(warm) == (6, 0)
        assert (wd / "Trinity.fasta").read_bytes() == cold and cold.count(b">") > 0
        merged = (
            ("counts",), ("contigs",), ("hits", "scaffolds"), ("welds", "pairs", "components"),
            ("assignments",), ("transcripts", "quant_stats"),
        )
        for stage, names in zip(warm.children, merged):
            outs = [rank.outputs for rank in stage.outputs]
            assert len(outs) == NPROCS
            for name in names:
                assert all(getattr(o, name) is getattr(outs[0], name) for o in outs), name
        # ... and the restored k-mer table is as read-only as the shared one.
        assert not warm.outputs.counts.codes.flags.writeable

    @pytest.mark.timeout(300)
    def test_deleted_workdir_recomputes_the_stages_that_wrote_it(
        self, smoke_reads, tmp_path
    ):
        """A checkpoint whose files are gone is a miss: only GFF, which
        writes no file, is restored, and every file is written again."""
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=3, nthreads=2)
        ckpt, wd = tmp_path / "ckpts", tmp_path / "wd"
        cold = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=wd, checkpoint_dir=ckpt)
        shutil.rmtree(wd)
        rerun = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=wd, checkpoint_dir=ckpt)
        assert _ckpt_counters(rerun) == (1, 5)
        assert set(rerun.outputs.files) == set(cold.outputs.files)
        assert all(path.exists() for path in rerun.outputs.files.values())
        assert _seqs(rerun) == _seqs(cold)

    @pytest.mark.timeout(300)
    def test_one_deleted_output_recomputes_only_its_stage(self, smoke_reads, tmp_path):
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=3, nthreads=2)
        ckpt, wd = tmp_path / "ckpts", tmp_path / "wd"
        ParallelTrinityDriver(cfg).run(smoke_reads, workdir=wd, checkpoint_dir=ckpt)
        contigs = wd / "inchworm.contigs.fa"
        cold = contigs.read_bytes()
        contigs.unlink()
        rerun = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=wd, checkpoint_dir=ckpt)
        assert _ckpt_counters(rerun) == (5, 1)
        assert contigs.read_bytes() == cold

    @pytest.mark.timeout(300)
    def test_corrupt_or_stale_checkpoint_recomputes(self, smoke_reads, tmp_path):
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=2, nthreads=2)
        ckpt = tmp_path / "ckpts"
        first = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)

        def rewrite(stage, edit):
            path = ckpt / f"{stage}.ckpt.pkl"
            payload = pickle.loads(path.read_bytes())
            edit(payload)
            path.write_bytes(pickle.dumps(payload))

        # Corrupt one checkpoint, truncate another, key-mismatch a third
        # (the digest of some other run), and strip the result off a fourth.
        (ckpt / "mpi_bowtie.ckpt.pkl").write_bytes(b"not a pickle")
        jf = ckpt / "mpi_jellyfish.ckpt.pkl"
        jf.write_bytes(jf.read_bytes()[:100])
        rewrite("mpi_graph_from_fasta", lambda p: p.update(key="0" * 64))
        rewrite("mpi_reads_to_transcripts", lambda p: p.pop("result"))
        result = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        # Recomputed, not crashed: the four damaged stages relaunch (same
        # keys, so the two intact checkpoints downstream still restore).
        assert _ckpt_counters(result) == (2, 4)
        assert _seqs(result) == _seqs(first)

    @pytest.mark.timeout(300)
    def test_checkpoint_of_another_payload_layout_is_a_logged_miss(
        self, smoke_reads, tmp_path, monkeypatch, caplog
    ):
        """Checkpoints keyed as before the key carried a payload-layout
        version (config and inputs only — under which a back-end payload
        unpickled into a dict-of-strings graph and was handed back as
        "restored") all miss, say so, and recompute the same bytes; a
        same-version restart still restores six of six."""
        import hashlib
        import logging

        from repro.parallel import driver

        def old_key(row, stage_config, cfg, workdir, digest, upstream_keys):
            parts = (
                row.fn.__name__, stage_config, cfg.nprocs, cfg.nthreads, cfg.faults,
                str(workdir), digest, list(upstream_keys),
            )
            return hashlib.sha256(repr(parts).encode()).hexdigest()

        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=2, nthreads=2)
        ckpt, wd = tmp_path / "ckpts", tmp_path / "wd"

        def run():
            result = ParallelTrinityDriver(cfg).run(
                smoke_reads, workdir=wd, checkpoint_dir=ckpt
            )
            return (wd / "Trinity.fasta").read_bytes(), _ckpt_counters(result)

        with monkeypatch.context() as patch:
            patch.setattr(driver, "_checkpoint_key", old_key)
            old, _ = run()
        with caplog.at_level(logging.INFO, logger=driver.logger.name):
            new, counters = run()
        assert counters == (0, 6)
        stale = [r.getMessage() for r in caplog.records if "stale" in r.getMessage()]
        assert len(stale) == 6 and all("recomputing" in msg for msg in stale)
        assert new == old and new.count(b">") > 0
        assert run() == (new, (6, 0))

    @pytest.mark.timeout(300)
    def test_checkpoint_of_other_code_recomputes_everything(
        self, smoke_reads, tmp_path, monkeypatch
    ):
        """The key carries a digest of the package's sources: checkpoints
        written by other code (a kernel change that alters output, a
        pickled layout) all miss, and the same code restores six of six."""
        from repro.parallel import driver

        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=2, nthreads=2)
        ckpt = tmp_path / "ckpts"
        cold = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        assert driver._source_digest.cache_info().misses == 1  # once per process
        monkeypatch.setattr(driver, "_source_digest", lambda: "other code")
        other = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        assert _ckpt_counters(cold) == _ckpt_counters(other) == (0, 6)
        same = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        assert _ckpt_counters(same) == (6, 0)
        assert _seqs(same) == _seqs(other) == _seqs(cold)

    @pytest.mark.timeout(300)
    def test_other_reads_of_same_count_recompute_everything(self, smoke_reads, tmp_path):
        """The key carries a content digest of the reads, not their count."""
        other = flatten_reads(get_recipe("smoke").materialize(seed=2)[1])
        assert len(other) == len(smoke_reads) and other != list(smoke_reads)
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=2, nthreads=2)
        ckpt = tmp_path / "ckpts"
        ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        rerun = ParallelTrinityDriver(cfg).run(other, checkpoint_dir=ckpt)
        assert _ckpt_counters(rerun) == (0, 6)
        assert _seqs(rerun) == _seqs(ParallelTrinityDriver(cfg).run(other))

    @pytest.mark.timeout(300)
    def test_changed_stage_knob_recomputes_it_and_downstream_only(
        self, smoke_reads, tmp_path
    ):
        """A knob recomputes exactly the stages that read it and those
        downstream of them: a GFF knob gff, rtt and chrysalis; the scaffold
        knob, off, launches no bowtie and recomputes gff, rtt and chrysalis;
        the pair knob, read by the back end alone, chrysalis only.  Each
        flip is against checkpoints of the base config."""
        base = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=2, nthreads=2)
        ckpt = tmp_path / "ckpts"
        ParallelTrinityDriver(base).run(smoke_reads, checkpoint_dir=ckpt)
        for knob, counters in (
            ({"min_weld_read_support": 3}, (3, 3)),
            ({"use_bowtie_scaffolds": False}, (2, 3)),
            ({"use_pair_reconciliation": False}, (5, 1)),
        ):
            cfg = ParallelTrinityConfig(
                trinity=TrinityConfig(seed=1, **knob), nprocs=2, nthreads=2
            )
            rerun = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
            assert _ckpt_counters(rerun) == counters, knob
            assert _seqs(rerun) == _seqs(ParallelTrinityDriver(cfg).run(smoke_reads))
            assert _ckpt_counters(
                ParallelTrinityDriver(base).run(smoke_reads, checkpoint_dir=ckpt)
            ) == (6 - counters[1], counters[1]), knob

    @pytest.mark.timeout(300)
    def test_other_network_recomputes_everything(self, smoke_reads, tmp_path):
        """The network model times every collective, so it is part of the
        key: a slower interconnect restores nothing, the same one all six."""
        fast = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=3, nthreads=2)
        slow = replace(fast, network=NetworkModel(alpha=1e-2, beta=1e-6))
        ckpt = tmp_path / "ckpts"
        ParallelTrinityDriver(fast).run(smoke_reads, checkpoint_dir=ckpt)
        cold = ParallelTrinityDriver(slow).run(smoke_reads, checkpoint_dir=ckpt)
        assert _ckpt_counters(cold) == (0, 6)
        warm = ParallelTrinityDriver(slow).run(smoke_reads, checkpoint_dir=ckpt)
        assert _ckpt_counters(warm) == (6, 0)
        assert _seqs(warm) == _seqs(cold)


class TestPairSteps:
    """Both pair steps run inside stages: Bowtie's scaffold count and the
    back end's reconciliation are crash points like any window, and a
    checkpointed restart re-runs neither."""

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("nprocs", [3, 8])
    def test_crash_in_each_pair_window_recovers_serial_bytes(
        self, smoke_reads, tmp_path, nprocs
    ):
        """One rank dies entering Bowtie's scaffold count, another entering
        the back end's pair scoring, under flaky I/O: each stage re-deals
        on its survivors and ``Trinity.fasta`` is the serial file."""
        from repro.trinity import TrinityPipeline

        trinity = TrinityConfig(seed=1)
        want = (
            TrinityPipeline(trinity).run(smoke_reads, workdir=tmp_path / "serial")
            .outputs.files["transcripts"].read_bytes()
        )
        plan = FaultPlan(
            crashes=(
                CrashFault(rank=1, phase="bowtie:scaffolds"),
                CrashFault(rank=nprocs - 1, phase="chrysalis:pairs"),
            ),
            flaky_io=FlakyIO(rate=0.2),
        )
        cfg = ParallelTrinityConfig(trinity=trinity, nprocs=nprocs, nthreads=2, faults=plan)
        result = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=tmp_path / "par")
        assert result.outputs.files["transcripts"].read_bytes() == want
        lost = {child.stage: child.metrics.get("faults.rank_losses", 0.0)
                for child in result.children}
        assert lost["mpi_bowtie"] == lost["mpi_chrysalis_backend"] == 1.0
        assert result.metrics["faults.rank_losses"] == 2.0

    @pytest.mark.timeout(300)
    def test_restart_launches_nothing_and_runs_no_pair_step(
        self, smoke_reads, tmp_path, monkeypatch
    ):
        """A checkpointed rerun restores all six stages: no ``mpirun``, no
        mate join, scaffold count or pair scoring, and the same
        ``Trinity.fasta`` bytes, which are the serial pipeline's."""
        from importlib import import_module

        from repro.trinity import TrinityPipeline

        driver, mpi_bowtie, mpi_chrysalis_backend = (
            import_module(f"repro.parallel.{name}")
            for name in ("driver", "mpi_bowtie", "mpi_chrysalis_backend")
        )

        trinity = TrinityConfig(seed=1)
        cfg = ParallelTrinityConfig(trinity=trinity, nprocs=3, nthreads=2)
        wd, ckpt = tmp_path / "wd", tmp_path / "ckpt"
        cold = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=wd, checkpoint_dir=ckpt)
        written = cold.outputs.files["transcripts"].read_bytes()

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a restart ran a stage or a pair step")

        for module, name in (
            (driver, "mpirun_with_recovery"),
            (mpi_bowtie, "mate_index"), (mpi_bowtie, "scaffold_support"),
            (mpi_chrysalis_backend, "component_mates"), (mpi_chrysalis_backend, "mate_support"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        warm = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=wd, checkpoint_dir=ckpt)
        assert _ckpt_counters(warm) == (6, 0)
        assert warm.outputs.files["transcripts"].read_bytes() == written
        monkeypatch.undo()
        serial = TrinityPipeline(trinity).run(smoke_reads, workdir=tmp_path / "serial")
        assert serial.outputs.files["transcripts"].read_bytes() == written


class TestRunRecord:
    @pytest.mark.timeout(300)
    def test_faults_and_checkpoints_are_counted_per_run(self, smoke_reads, tmp_path):
        """A driver run's metrics say what happened in that run only: a
        lost rank is not reported again by the next fault-free run in the
        same process, and a rerun counts its own restores, not the cold
        run's writes."""
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=3, nthreads=2)
        plan = FaultPlan(crashes=(CrashFault(rank=2, phase="gff:loop1"),))
        faulted = ParallelTrinityDriver(replace(cfg, faults=plan)).run(smoke_reads)
        assert faulted.metrics["faults.rank_losses"] == 1.0
        clean = ParallelTrinityDriver(cfg).run(smoke_reads)
        assert clean.metrics["faults.rank_losses"] == 0.0
        assert _ckpt_counters(clean) == (0, 0)

        ckpt = tmp_path / "ckpts"
        cold = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        warm = ParallelTrinityDriver(cfg).run(smoke_reads, checkpoint_dir=ckpt)
        assert _ckpt_counters(cold) == (0, 6)
        assert _ckpt_counters(warm) == (6, 0)
        assert warm.metrics["faults.rank_losses"] == 0.0
        assert _seqs(warm) == _seqs(cold) == _seqs(clean) == _seqs(faulted)


def _ckpt_counters(result):
    """(stages restored, stages checkpointed) by one driver run."""
    return result.metrics["checkpoint.restores"], result.metrics["checkpoint.writes"]


def _seqs(result):
    return [t.seq for t in result.outputs.transcripts]


class TestSweepAndCli:
    @pytest.mark.timeout(120)
    def test_sweep_renders_and_outputs_hold(self):
        from repro.experiments.faults import run_fault_sweep

        result = run_fault_sweep(
            nprocs=4, seed=0, n_chunks=8,
            crash_rates=(0.4,), straggler_slowdowns=(2.0,), io_rates=(0.3,),
        )
        assert all(s.outputs_ok for s in result.scenarios)
        text = result.render()
        assert "degradation" in text and "fault-free" in text
        # Degradation is measured against the fault-free row.
        assert result.scenarios[0].degradation == 1.0

    @pytest.mark.timeout(120)
    def test_faults_cli(self, capsys):
        from repro.cli import main

        rc = main(
            ["faults", "--nprocs", "4", "--chunks", "8",
             "--crash-rates", "0.4", "--slowdowns", "2", "--io-rates", "0.2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fault sweep" in out and "outputs ok" in out
