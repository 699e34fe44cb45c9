"""Integration tests for the distributed Jellyfish stage.

The invariant everything else hangs off: at every rank count, with or
without an injected rank crash, ``mpi_jellyfish`` hands on the serial
``jellyfish_count`` table filtered to ``min_kmer_count`` *exactly*, and
its dump holds the whole count — counting is a commutative multiset
reduction and the owner ranges tile k-mer space in rank order, so the
gathered index arrays and the striped dump bytes are the serial ones at
any ``nprocs``.  The drawn-reads property is
``tests/property/test_jellyfish_prop.py``.
"""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.mpi import CrashFault, FaultPlan, mpirun
from repro.obs.span import stage_seconds
from repro.parallel.driver import ParallelTrinityConfig, ParallelTrinityDriver
from repro.parallel.mpi_jellyfish import (
    JellyfishInputs,
    JellyfishStageConfig,
    mpi_jellyfish,
)
from repro.parallel.recovery import mpirun_with_recovery
from repro.trinity import TrinityConfig
from repro.trinity.jellyfish import JellyfishConfig, jellyfish_count, jellyfish_dump

NPROCS = 8
K = 25


@pytest.fixture(scope="module")
def serial_counts(smoke_reads):
    return jellyfish_count(smoke_reads, K)


@pytest.fixture(scope="module")
def serial_solid(serial_counts):
    """What the stage hands on at its default threshold."""
    return serial_counts.filtered(JellyfishStageConfig().min_kmer_count)


def _assert_table_equal(counts, serial):
    assert counts.k == serial.k and counts.canonical == serial.canonical
    assert np.array_equal(counts.codes, serial.codes)
    assert np.array_equal(counts.values, serial.values)


class TestSerialEquality:
    # Equality with the serial body at 1/3/8 ranks, and the dump's bytes:
    # ``tests/integration/test_parallel_equivalence.py``.
    def test_tiny_batches_still_identical(self, smoke_reads, serial_solid):
        # batch_bases=1 flushes per read on every rank — the most hostile
        # batching still merges to the same table.
        run = mpirun(
            mpi_jellyfish, 3,
            JellyfishInputs(reads=smoke_reads),
            JellyfishStageConfig(jellyfish=JellyfishConfig(k=K, batch_bases=1)),
        )
        _assert_table_equal(run.outputs[0].counts, serial_solid)

    def test_empty_read_set(self):
        run = mpirun(
            mpi_jellyfish, 3,
            JellyfishInputs(reads=[]),
            JellyfishStageConfig(jellyfish=JellyfishConfig(k=K)),
        )
        for r in run.outputs:
            assert len(r.outputs.counts) == 0


class TestRecovery:
    @pytest.mark.timeout(120)
    def test_crash_recovery_byte_identical(
        self, smoke_reads, serial_counts, serial_solid, tmp_path
    ):
        plan = FaultPlan(crashes=(CrashFault(rank=2, phase="jellyfish:count"),))
        wd = tmp_path / "recovered"
        rec = mpirun_with_recovery(
            mpi_jellyfish, NPROCS,
            JellyfishInputs(reads=smoke_reads),
            JellyfishStageConfig(jellyfish=JellyfishConfig(k=K), workdir=wd),
            faults=plan,
        )
        # The i-mod-p deal is a pure function of (reads, nprocs), so the
        # survivor re-deal reproduces the identical table and dump.
        assert len(rec.outputs) == NPROCS - 1
        _assert_table_equal(rec.outputs[0].counts, serial_solid)
        serial_path = tmp_path / "serial.kmers.fa"
        jellyfish_dump(serial_counts, serial_path)
        assert rec.outputs[0].out_path.read_bytes() == serial_path.read_bytes()
        assert rec.metrics["faults.rank_losses"] == 1.0


class TestMetrics:
    def test_stage_metrics_present(self, smoke_reads):
        run = mpirun(
            mpi_jellyfish, 3,
            JellyfishInputs(reads=smoke_reads),
            JellyfishStageConfig(jellyfish=JellyfishConfig(k=K)),
        )
        per_rank = run.outputs
        r = per_rank[0]
        assert r.metrics["n_reads"] == len(smoke_reads)
        # The deal covers every read exactly once...
        assert sum(x.metrics["n_local_reads"] for x in per_rank) == len(smoke_reads)
        # ...and the disjoint owner slices tile the distinct k-mers exactly.
        assert sum(x.metrics["n_owned_kmers"] for x in per_rank) == r.metrics["n_kmers"]
        assert r.metrics["n_kmers"] == len(jellyfish_count(smoke_reads, K))
        assert run.makespan > 0

    def test_config_validation(self):
        with pytest.raises(PipelineError):
            JellyfishConfig(k=0)
        with pytest.raises(PipelineError):
            JellyfishConfig(batch_bases=0)


class TestDriverIntegration:
    @pytest.mark.timeout(300)
    def test_driver_runs_jellyfish_distributed(self, smoke_reads, tmp_path):
        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=3, nthreads=2)
        result = ParallelTrinityDriver(cfg).run(smoke_reads, workdir=tmp_path)
        jf = next(c for c in result.children if c.stage == "mpi_jellyfish")
        # The front end really ran under mpirun: per-rank results with a
        # virtual makespan, not a serial call on the driver thread.
        assert len(jf.outputs) == 3
        assert jf.makespan > 0
        assert result.metrics["mpi.jellyfish_makespan_s"] == jf.makespan
        assert "jellyfish[mpi]" in stage_seconds(result.spans)
        serial = jellyfish_count(smoke_reads, cfg.trinity.k)
        _assert_table_equal(jf.outputs[0].counts, serial.filtered(cfg.trinity.min_kmer_count))
        assert result.outputs.counts == jf.outputs[0].counts
        dump = result.outputs.files["jellyfish_dump"]
        assert dump.read_bytes() and dump.name == "jellyfish.kmers.fa"
