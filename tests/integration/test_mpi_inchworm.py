"""Integration tests for the distributed component-partitioned Inchworm.

The invariant everything else hangs off: at every rank count and thread
count, under both deal strategies, with or without an injected rank
crash, ``mpi_inchworm`` reproduces serial ``inchworm_assemble`` *exactly*
— the greedy walk can never leave its seed's k-mer-graph component, and
a component-local seed order is the global order restricted to the
component, so the keyed merge re-emits the serial sequence byte for
byte.  Threads and their stragglers move virtual clocks only; the output
never depends on them.
"""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.mpi import CrashFault, FaultPlan, StragglerFault, mpirun
from repro.obs.span import stage_seconds
from repro.parallel.driver import (
    ParallelTrinityConfig,
    ParallelTrinityDriver,
    _inchworm_slowdown_table,
)
from repro.parallel.mpi_inchworm import (
    InchwormInputs,
    InchwormStageConfig,
    mpi_inchworm,
)
from repro.parallel.recovery import mpirun_with_recovery
from repro.seq.records import SeqRecord
from repro.trinity import TrinityConfig
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count
from repro.trinity.pipeline import TrinityPipeline
from tests import reference_inchworm

NPROCS = 8


@pytest.fixture(scope="module")
def serial_contigs(smoke_counts):
    contigs = inchworm_assemble(smoke_counts, InchwormConfig(seed=1))
    # The serial assembler is itself a table walk: pin it to the per-step
    # oracle, so "equals serial" below means "equals the greedy rule".
    assert contigs == reference_inchworm.inchworm_assemble(
        smoke_counts, InchwormConfig(seed=1)
    )
    return contigs


class TestSerialEquality:
    @pytest.mark.parametrize("nprocs", [1, 3, NPROCS])
    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    def test_matches_serial_exactly(
        self, smoke_counts, serial_contigs, nprocs, strategy
    ):
        run = mpirun(
            mpi_inchworm, nprocs,
            InchwormInputs(counts=smoke_counts),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1), strategy=strategy),
        )
        for r in run.outputs:
            # Every rank returns the identical full seed-ordered list.
            assert r.outputs.contigs == serial_contigs

    def test_file_bytes_identical_to_serial_write(
        self, smoke_reads, smoke_counts, serial_contigs, tmp_path
    ):
        serial = TrinityPipeline(TrinityConfig(seed=1)).run(
            smoke_reads, workdir=tmp_path / "serial"
        )
        run = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=smoke_counts),
            InchwormStageConfig(
                inchworm=InchwormConfig(seed=1), workdir=tmp_path / "mpi"
            ),
        )
        out = run.outputs[0].out_path
        assert out == tmp_path / "mpi" / "inchworm.contigs.fa"
        assert (
            out.read_bytes()
            == serial.outputs.files["inchworm_contigs"].read_bytes()
        )

    def test_threaded_output_invariant_in_nprocs(self, smoke_counts, serial_contigs):
        # Threads own whole components, so at n_threads > 1 the output is
        # still the serial one: neither the deal, the rank count nor the
        # thread count may show through.
        for nprocs in (1, 3, NPROCS):
            for strategy in ("round_robin", "dynamic"):
                run = mpirun(
                    mpi_inchworm, nprocs,
                    InchwormInputs(counts=smoke_counts),
                    InchwormStageConfig(
                        inchworm=InchwormConfig(seed=1),
                        n_threads=4,
                        strategy=strategy,
                    ),
                )
                assert run.outputs[0].outputs.contigs == serial_contigs

    def test_probe_is_dealt_and_rows_are_owned(self, smoke_counts):
        # Each rank probes one block of positions, and every stored k-mer's
        # rows (2 orientations x 2 directions x 4 int32 entries) are built
        # on exactly one rank: its component's owner.
        run = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=smoke_counts),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1)),
            trace=True,
        )
        n = len(smoke_counts.index.filtered(InchwormConfig().min_kmer_count))
        landing_bytes = n * 8 * 4
        row_bytes = [r.metrics["table_bytes"] - landing_bytes for r in run.outputs]
        assert all(b >= 0 for b in row_bytes) and sum(row_bytes) == n * 2 * 2 * 4 * 4
        for trace in run.traces:
            assert len([s for s in trace.segments if s.label == "inchworm:probe"]) == 1

    def test_empty_counter(self):
        counts = jellyfish_count([], 25)
        run = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=counts),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1)),
        )
        for r in run.outputs:
            assert r.outputs.contigs == []
            assert r.outputs.n_components == 0


class TestFewComponents:
    """More ranks, or more threads, than there are components to own."""

    @pytest.fixture(scope="class")
    def two_component_counts(self):
        rng = np.random.default_rng(5)
        seqs = ["".join(rng.choice(list("ACGT"), size=n).tolist()) for n in (90, 60)]
        # Two copies of each clear the error-kmer filter (min_kmer_count).
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
        for r, trace in zip(run.outputs, run.traces):
            assert r.outputs.contigs == serial
            assert r.outputs.n_components == 2
            advances = [
                seg for seg in trace.segments
                if seg.label == "inchworm:assemble_components"
            ]
            if r.metrics["n_local_components"] == 0:
                # Nothing owned: no team time, no clock advance, same keys.
                assert r.metrics["team_makespan_s"] == 0.0
                assert r.metrics["team_serial_s"] == 0.0
                assert r.metrics["phase.assemble_s"] == 0.0
                assert advances == []
            else:
                owners += 1
                assert r.metrics["team_makespan_s"] > 0
                (seg,) = advances
                assert set(seg.attrs) == {"components", "n_threads", "steps"}
                assert seg.attrs["n_threads"] == 8
            assert r.metrics["n_threads"] == 8.0
        assert 1 <= owners <= 2

    def test_eight_threads_two_components_one_rank(self, two_component_counts):
        # At most two of the eight thread clocks can move; the team
        # makespan is the busier of the two, never a sum over threads.
        run = mpirun(
            mpi_inchworm, 1,
            InchwormInputs(counts=two_component_counts),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1), n_threads=8),
        )
        r = run.outputs[0]
        assert r.outputs.contigs == inchworm_assemble(
            two_component_counts, InchwormConfig(seed=1)
        )
        assert 0 < r.metrics["team_makespan_s"] <= r.metrics["team_serial_s"]


class TestRecovery:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    def test_crash_recovery_byte_identical(
        self, smoke_counts, serial_contigs, strategy
    ):
        plan = FaultPlan(crashes=(CrashFault(rank=2, phase="inchworm:assemble"),))
        for n_threads in (1, 4):
            rec = mpirun_with_recovery(
                mpi_inchworm, NPROCS,
                InchwormInputs(counts=smoke_counts),
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
        # which the round-robin deal hands to rank 0.  A straggler mapped
        # to rank 2's thread 0 (flat id 2 * n_threads) slows a rank that
        # owns nothing: the contigs must be bit-identical to fault-free.
        rng = np.random.default_rng(7)
        seq = "".join(rng.choice(list("ACGT"), size=120).tolist())
        # Two copies clear the error-kmer filter (min_kmer_count).
        counts = jellyfish_count([SeqRecord("r0", seq), SeqRecord("r1", seq)], 25)
        n_threads = 2
        plan = FaultPlan(
            stragglers=(StragglerFault(rank=2 * n_threads, slowdown=50.0),)
        )
        table = _inchworm_slowdown_table(plan, nprocs=3, n_threads=n_threads)
        assert table is not None
        assert table[2][0] == 50.0 and table[0] == (1.0,) * n_threads
        base = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=counts),
            InchwormStageConfig(inchworm=InchwormConfig(seed=1), n_threads=n_threads),
        )
        slowed = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=counts),
            InchwormStageConfig(
                inchworm=InchwormConfig(seed=1),
                n_threads=n_threads,
                thread_slowdowns=table,
            ),
        )
        assert base.outputs[0].metrics["n_components"] == 1.0
        assert slowed.outputs[0].outputs.contigs == base.outputs[0].outputs.contigs

    def test_flat_ids_map_to_rank_thread_pairs(self):
        # flat id = rank * n_threads + thread, rank-major.
        plan = FaultPlan(
            stragglers=(
                StragglerFault(rank=1, slowdown=3.0),  # rank 0, thread 1
                StragglerFault(rank=5, slowdown=7.0),  # rank 2, thread 1
                StragglerFault(rank=6, slowdown=9.0),  # beyond 3x2: dropped
            )
        )
        table = _inchworm_slowdown_table(plan, nprocs=3, n_threads=2)
        assert table == ((1.0, 3.0), (1.0, 1.0), (1.0, 7.0))


class TestMetrics:
    def test_stage_metrics_present(self, smoke_counts):
        run = mpirun(
            mpi_inchworm, 3,
            InchwormInputs(counts=smoke_counts),
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
        serial = inchworm_assemble(
            jellyfish_count(smoke_reads, cfg.trinity.k), cfg.trinity.inchworm()
        )
        assert result.outputs.contigs == serial
        contig_file = result.outputs.files["inchworm_contigs"]
        assert contig_file.read_bytes() and contig_file.name == "inchworm.contigs.fa"
