"""Failure propagation: a dying rank must release every blocked peer and
``mpirun`` must surface the *genuine* root-cause exception.

Regression suite for two seed bugs: (1) the primary-failure picker let
a low-rank secondary abandonment mask the true root cause from a higher
rank; (2) not every blocking path observed ``state.failed`` (shared
cells).
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import CommAbandonedError, MpiAbortError
from repro.mpi import mpirun

#: Every blocking op a peer can be parked in when a rank dies.
COLLECTIVES = {
    "barrier": lambda comm: comm.barrier(),
    "bcast": lambda comm: comm.bcast("payload" if comm.rank == 0 else None, root=0),
    "allgather": lambda comm: comm.allgather(comm.rank),
    "allgatherv": lambda comm: comm.allgatherv(np.arange(comm.rank + 1)),
    "alltoall": lambda comm: comm.alltoall([comm.rank] * comm.size),
}


@pytest.mark.timeout(60)
@pytest.mark.parametrize("nprocs", [2, 8])
@pytest.mark.parametrize("op", sorted(COLLECTIVES))
class TestCollectiveRelease:
    def test_failing_rank_releases_peers_and_is_primary(self, op, nprocs):
        def body(comm):
            if comm.rank == comm.size - 1:
                raise ValueError(f"genuine bug instead of {op}")
            return COLLECTIVES[op](comm)

        t0 = time.monotonic()
        with pytest.raises(MpiAbortError) as ei:
            mpirun(body, nprocs)
        # Peers were released promptly, not left to a watchdog.
        assert time.monotonic() - t0 < 30
        err = ei.value
        assert err.rank == nprocs - 1
        assert isinstance(err.__cause__, ValueError)
        # Released peers show up only as tagged secondaries.
        for failure in err.secondaries:
            assert isinstance(failure.exc, CommAbandonedError)
            assert failure.rank != nprocs - 1


class TestPrimarySelection:
    @pytest.mark.timeout(60)
    def test_low_rank_abandonment_does_not_mask_high_rank_cause(self):
        """The seed picker sorted by rank and only skipped
        BrokenBarrierError, so rank 0's CommAbandonedError would win."""

        def body(comm):
            if comm.rank == comm.size - 1:
                raise ValueError("the real bug, on the highest rank")
            # Every other rank blocks on the dead rank and gets abandoned.
            comm.barrier()

        with pytest.raises(MpiAbortError) as ei:
            mpirun(body, 4)
        assert ei.value.rank == 3
        assert isinstance(ei.value.__cause__, ValueError)
        assert {f.rank for f in ei.value.secondaries} == {0, 1, 2}

    @pytest.mark.timeout(60)
    def test_lowest_genuine_failure_wins_among_equals(self):
        def body(comm):
            raise ValueError(f"bug on rank {comm.rank}")

        with pytest.raises(MpiAbortError) as ei:
            mpirun(body, 4)
        assert ei.value.rank == 0
        assert len(ei.value.secondaries) == 3


class TestSharedCellRelease:
    @pytest.mark.timeout(60)
    def test_waiter_released_when_peer_fails_before_publish(self):
        """A rank polling an unpublished shared cell must observe a peer
        failure instead of waiting for the (stalled) owner forever."""
        claimed = threading.Event()
        release_owner = threading.Event()
        waiter_outcome = {}

        def body(comm):
            if comm.rank == 0:

                def fn():
                    claimed.set()
                    release_owner.wait(timeout=30)
                    return 42

                return comm.shared("slow-cell", fn)
            if comm.rank == 1:
                claimed.wait(timeout=30)
                raise ValueError("genuine bug while owner is computing")
            # Rank 2 waits on the claimed-but-unpublished cell.
            claimed.wait(timeout=30)
            try:
                comm.shared("slow-cell", lambda: 99)
            except CommAbandonedError as exc:
                waiter_outcome["exc"] = exc
                raise
            finally:
                release_owner.set()

        with pytest.raises(MpiAbortError) as ei:
            mpirun(body, 3)
        assert ei.value.rank == 1
        assert isinstance(ei.value.__cause__, ValueError)
        assert "abandoned" in str(waiter_outcome["exc"])

    @pytest.mark.timeout(60)
    def test_owner_exception_surfaces_as_primary(self):
        claimed_by_zero = threading.Event()

        def body(comm):
            if comm.rank != 0:
                claimed_by_zero.wait(timeout=30)

            def fn():
                claimed_by_zero.set()
                raise ValueError("owner bug inside shared()")

            comm.shared("bad-cell", fn)

        with pytest.raises(MpiAbortError) as ei:
            mpirun(body, 3)
        # The computing rank's ValueError is primary; consumers' tagged
        # CommAbandonedError (chained to it) never masks it.
        assert ei.value.rank == 0
        assert isinstance(ei.value.__cause__, ValueError)
        for failure in ei.value.secondaries:
            assert isinstance(failure.exc, CommAbandonedError)
            assert isinstance(failure.exc.__cause__, ValueError)

    @pytest.mark.timeout(60)
    def test_gff_weldmer_merge_failure_surfaces_as_primary(self, monkeypatch):
        """The same, through the real stage: the owner of ``gff:weldmers``
        fails while summing the pooled tables.  Its peers are leaving the
        ``allgatherv`` before it or waiting in ``shared()``; wherever they
        are released from, none hangs and each is only a secondary."""
        import repro.parallel.mpi_graph_from_fasta as stage
        from repro.seq.records import Contig, SeqRecord

        def corrupt(tables):
            raise ValueError("corrupt weldmer payload")

        # The stage's own reference: the pooled sum (the kernel's per-block
        # sums go through graph_from_fasta's).
        monkeypatch.setattr(stage, "sum_weldmer_tables", corrupt)
        seed = "ACGTCA"
        inputs = stage.GffInputs(
            contigs=[Contig("a", "TTGGAT" + seed + "CCATTG"), Contig("b", "GACTAG" + seed + "TGAACC")],
            reads=[SeqRecord(f"r{i}", "GAT" + seed + "TGA") for i in range(2)],
        )
        config = stage.GffStageConfig(gff=stage.GraphFromFastaConfig(k=6), nthreads=2)
        t0 = time.monotonic()
        with pytest.raises(MpiAbortError) as ei:
            mpirun(stage.mpi_graph_from_fasta, 4, inputs, config)
        assert time.monotonic() - t0 < 30
        assert isinstance(ei.value.__cause__, ValueError)
        assert len(ei.value.secondaries) == 3
        for failure in ei.value.secondaries:
            assert failure.rank != ei.value.rank
            assert isinstance(failure.exc, CommAbandonedError)
            # Released from shared(): chained to the owner's error.
            assert isinstance(failure.exc.__cause__, (ValueError, type(None)))


    @pytest.mark.timeout(60)
    def test_backend_serial_setup_failure_surfaces_as_primary(self, monkeypatch):
        """The same inside the back end's serial ``chrysalis:deal`` entry:
        the owner of ``chrysalis:route`` fails building the routing table;
        its peers wait on that cell (or on a later one) inside the region
        and are released as secondaries."""
        import repro.parallel.mpi_chrysalis_backend as stage

        def corrupt(assignments):
            raise ValueError("corrupt routing table")

        monkeypatch.setattr(stage, "reads_by_component", corrupt)
        inputs = stage.contig_only_inputs(["ACGTTGCAAGGCTTAACCGGATCCATGCAAGT"] * 4)
        config = stage.ChrysalisBackendStageConfig(k=7, nthreads=2)
        t0 = time.monotonic()
        with pytest.raises(MpiAbortError) as ei:
            mpirun(stage.mpi_chrysalis_backend, 4, inputs, config)
        assert time.monotonic() - t0 < 30
        assert isinstance(ei.value.__cause__, ValueError)
        assert len(ei.value.secondaries) == 3
        for failure in ei.value.secondaries:
            assert failure.rank != ei.value.rank
            assert isinstance(failure.exc, CommAbandonedError)
