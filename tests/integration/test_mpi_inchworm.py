"""Integration tests for the distributed component-partitioned Inchworm.

The invariant everything else hangs off: at every rank count and thread
count, under both deal strategies, with or without an injected rank
crash, ``mpi_inchworm`` reproduces serial ``inchworm_assemble`` *exactly*
— the greedy walk can never leave its seed's k-mer-graph component, and
a component-local seed order is the global order restricted to the
component, so the keyed merge re-emits the serial sequence byte for
byte.  Threads and stragglers move virtual clocks only; the output
never depends on them.
"""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.mpi import CrashFault, FaultPlan, StragglerFault, mpirun
from repro.obs.critical import rank_clock_spans
from repro.obs.span import stage_seconds
import repro.parallel.mpi_inchworm
from repro.parallel.driver import ParallelTrinityConfig, ParallelTrinityDriver
from repro.parallel.mpi_inchworm import (
    InchwormInputs,
    InchwormStageConfig,
    mpi_inchworm,
)
from repro.parallel.recovery import mpirun_with_recovery
from repro.seq.records import SeqRecord
from repro.trinity import TrinityConfig, inchworm
from repro.trinity.inchworm import InchwormConfig, chain_table, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count
from tests import reference_inchworm

NPROCS = 8


@pytest.fixture(scope="module")
def serial_contigs(smoke_solid):
    contigs = inchworm_assemble(smoke_solid, InchwormConfig(seed=1))
    # The serial assembler is itself a table walk: pin it to the per-step
    # oracle, so "equals serial" below means "equals the greedy rule".
    assert contigs == reference_inchworm.inchworm_assemble(
        smoke_solid, InchwormConfig(seed=1)
    )
    return contigs


class TestSerialEquality:
    # Equality with the serial body at 1/3/8 ranks under both deals, and
    # the contig file's bytes: ``tests/integration/test_parallel_equivalence.py``.
    def test_threaded_output_invariant_in_nprocs(self, smoke_solid, serial_contigs):
        # Threads own whole components, so at n_threads > 1 the output is
        # still the serial one: neither the deal, the rank count nor the
        # thread count may show through.
        for nprocs in (1, 3, NPROCS):
            for strategy in ("round_robin", "dynamic"):
                run = mpirun(
                    mpi_inchworm, nprocs,
                    InchwormInputs(counts=smoke_solid),
                    InchwormStageConfig(
                        inchworm=InchwormConfig(seed=1),
                        n_threads=4,
                        strategy=strategy,
                    ),
                )
                assert run.outputs[0].outputs.contigs == serial_contigs

    def test_probe_is_dealt_and_rows_are_owned(self, smoke_solid, monkeypatch):
        # Each rank probes one block of positions, and every stored k-mer's
        # rows are built once over all ranks and threads: by its
        # component's owner.
        built = []

        def counted_rows(filtered, salt, landing, queue):
            built.append(queue.size)
            return chain_table(filtered, salt, landing, queue)

        monkeypatch.setattr(inchworm, "chain_table", counted_rows)
        run = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=smoke_solid),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1)),
            trace=True,
        )
        assert sum(built) == len(smoke_solid)
        for spans in rank_clock_spans(run):
            assert len([s for s in spans if s.label == "inchworm:probe"]) == 1

    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    def test_serial_region_is_the_replicated_builds(
        self, smoke_solid, serial_contigs, strategy, monkeypatch
    ):
        """What is replicated is the labelling, charged at single-rank
        cost; no global seed order is built on any rank."""

        def no_global_order(*_args):
            raise AssertionError("mpi_inchworm built the global seed order")

        for module in (inchworm, repro.parallel.mpi_inchworm):
            monkeypatch.setattr(module, "_seed_order", no_global_order, raising=False)
        run = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=smoke_solid),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1), strategy=strategy),
            trace=True,
        )
        assert run.outputs[0].outputs.contigs == serial_contigs
        for key in ("inchworm:setup",):
            charges = [s for s in run.spans if s.label == f"shared:{key}"]
            assert len({s.track for s in charges}) == 3 and len(charges) == 3
            assert len({s.duration for s in charges}) == 1
        for rank in range(3):
            mine = [s for s in run.spans if s.track == f"rank {rank}"]
            serial = [s for s in mine if s.kind == "phase" and s.attr("serial")]
            assert {s.label for s in serial} == {"inchworm:components"} and len(serial) == 1
            assert sum(s.duration for s in serial) == pytest.approx(
                sum(s.duration for s in mine if s.label.startswith("shared:inchworm:"))
            )

    def test_empty_counter(self):
        counts = jellyfish_count([], 25)
        run = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=counts),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1)),
        )
        for r in run.outputs:
            assert r.outputs.contigs == []
            assert r.metrics["n_components"] == 0


class TestFewComponents:
    """More ranks, or more threads, than there are components to own."""

    @pytest.fixture(scope="class")
    def two_component_counts(self):
        rng = np.random.default_rng(5)
        seqs = ["".join(rng.choice(list("ACGT"), size=n).tolist()) for n in (90, 60)]
        # Two copies of each: every k-mer is solid.
        return jellyfish_count(
            [SeqRecord(f"r{i}", seq) for i, seq in enumerate(seqs + seqs)], 25
        )

    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    def test_ranks_owning_nothing_stay_at_zero(self, two_component_counts, strategy):
        run = mpirun(
            mpi_inchworm, 5,
            InchwormInputs(counts=two_component_counts),
            InchwormStageConfig(
                inchworm=InchwormConfig(seed=1), n_threads=8, strategy=strategy
            ),
            trace=True,
        )
        serial = inchworm_assemble(two_component_counts, InchwormConfig(seed=1))
        owners = 0
        for r, spans in zip(run.outputs, rank_clock_spans(run)):
            assert r.outputs.contigs == serial
            assert r.metrics["n_components"] == 2
            advances = [
                seg for seg in spans
                if seg.label == "inchworm:assemble_components"
            ]
            if r.metrics["n_local_components"] == 0:
                # Nothing owned: no team time, no clock advance, same keys.
                assert r.metrics["phase.assemble_s"] == 0.0
                assert advances == []
            else:
                owners += 1
                # The team window's span is the one record of the team:
                # one item per busy thread, each owning one component.
                (seg,) = advances
                assert set(seg.attrs) == {
                    "components", "n_threads", "items", "serial_time", "speedup",
                }
                assert seg.attrs["n_threads"] == 8
                assert seg.attrs["items"] == r.metrics["n_local_components"]
                assert seg.duration > 0 and seg.attrs["speedup"] >= 1.0
                assert seg.duration == pytest.approx(
                    seg.attrs["serial_time"] / seg.attrs["speedup"]
                )
        assert 1 <= owners <= 2

    def test_eight_threads_two_components_one_rank(self, two_component_counts):
        # At most two of the eight threads get a queue; the team makespan
        # is the busier of the two, never a sum over threads.
        run = mpirun(
            mpi_inchworm, 1,
            InchwormInputs(counts=two_component_counts),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1), n_threads=8),
            trace=True,
        )
        r = run.outputs[0]
        assert r.outputs.contigs == inchworm_assemble(
            two_component_counts, InchwormConfig(seed=1)
        )
        (seg,) = [s for s in run.spans if s.label == "inchworm:assemble_components"]
        assert seg.attrs["items"] == 2
        assert seg.duration > 0 and seg.attrs["speedup"] >= 1.0
        assert seg.duration == pytest.approx(seg.attrs["serial_time"] / seg.attrs["speedup"])


class TestRecovery:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    def test_crash_recovery_byte_identical(
        self, smoke_solid, serial_contigs, strategy
    ):
        plan = FaultPlan(crashes=(CrashFault(rank=2, phase="inchworm:assemble"),))
        for n_threads in (1, 4):
            rec = mpirun_with_recovery(
                mpi_inchworm, NPROCS,
                InchwormInputs(counts=smoke_solid),
                InchwormStageConfig(
                    inchworm=InchwormConfig(seed=1), strategy=strategy,
                    n_threads=n_threads,
                ),
                faults=plan,
            )
            # The deal is a pure function of (counter, nprocs), so the
            # survivor re-deal reproduces the identical merged contigs.
            assert len(rec.outputs) == NPROCS - 1
            assert rec.outputs[0].outputs.contigs == serial_contigs
            assert rec.metrics["faults.rank_losses"] == 1.0


class TestStragglers:
    def test_straggler_on_non_owner_rank_leaves_output_untouched(self):
        # One long read -> every k-mer chains into a single component,
        # which the round-robin deal hands to rank 0.  A straggler on rank
        # 2 slows a rank that owns nothing: the contigs must be
        # bit-identical to fault-free.
        rng = np.random.default_rng(7)
        seq = "".join(rng.choice(list("ACGT"), size=120).tolist())
        # Two copies: every k-mer is solid.
        counts = jellyfish_count([SeqRecord("r0", seq), SeqRecord("r1", seq)], 25)
        config = InchwormStageConfig(inchworm=InchwormConfig(seed=1), n_threads=2)
        base = mpirun(mpi_inchworm, 3, InchwormInputs(counts=counts), config)
        slowed = mpirun(
            mpi_inchworm, 3, InchwormInputs(counts=counts), config,
            faults=FaultPlan(stragglers=(StragglerFault(rank=2, slowdown=50.0),)),
        )
        assert base.outputs[0].metrics["n_components"] == 1.0
        assert [r.metrics["n_local_components"] for r in slowed.outputs] == [1.0, 0.0, 0.0]
        assert slowed.outputs[0].outputs.contigs == base.outputs[0].outputs.contigs


class TestMetrics:
    def test_stage_metrics_present(self, smoke_solid):
        run = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=smoke_solid),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1)),
        )
        per_rank = run.outputs
        r = per_rank[0]
        assert r.metrics["n_components"] > 0
        # The deal tiles the components exactly across the ranks.
        assert (
            sum(x.metrics["n_local_components"] for x in per_rank)
            == r.metrics["n_components"]
        )
        assert r.metrics["n_contigs"] == len(r.outputs.contigs)
        assert run.makespan > 0

    def test_config_validation(self):
        with pytest.raises(PipelineError):
            InchwormStageConfig(strategy="nope")
        with pytest.raises(PipelineError):
            InchwormStageConfig(n_threads=0)


class TestDriverIntegration:
    @pytest.mark.timeout(300)
    def test_driver_runs_inchworm_distributed(self, smoke_reads, tmp_path):
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=3, nthreads=2)
        result = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=tmp_path)
        iw = next(c for c in result.children if c.stage == "mpi_inchworm")
        # The stage really ran under mpirun: per-rank results with a
        # virtual makespan, not a front-end call on the driver thread.
        assert len(iw.outputs) == 3
        assert iw.makespan > 0
        assert result.metrics["mpi.inchworm_makespan_s"] == iw.makespan
        assert "inchworm[mpi]" in stage_seconds(result.spans)
        solid = jellyfish_count(smoke_reads, cfg.trinity.k).filtered(cfg.trinity.min_kmer_count)
        serial = inchworm_assemble(solid, cfg.trinity.inchworm())
        assert result.outputs.contigs == serial
        contig_file = result.outputs.files["inchworm_contigs"]
        assert contig_file.read_bytes() and contig_file.name == "inchworm.contigs.fa"
