"""Unit tests for the simulated MPI runtime."""

import numpy as np
import pytest

from repro.errors import CommError
from repro.mpi import IDATAPLEX_FDR10, NetworkModel, mpirun
from repro.mpi.clock import VirtualClock
from repro.mpi.datatypes import nbytes_of, pack_strings, unpack_strings
from repro.mpi.network import ZERO_COST
from repro.trinity.chrysalis.graph_from_fasta import pair_array, unique_pairs


class TestClock:
    def test_advance(self):
        c = VirtualClock()
        c.advance(2.5)
        assert c.now == 2.5

    def test_sync_forward_only(self):
        c = VirtualClock(5.0)
        c.sync_to(3.0)
        assert c.now == 5.0
        c.sync_to(9.0)
        assert c.now == 9.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-1)


class TestNetwork:
    def test_single_rank_collectives_free(self):
        net = IDATAPLEX_FDR10
        assert net.bcast(1, 1000) == 0.0
        assert net.allgatherv(1, 1000) == 0.0

    def test_costs_scale_with_bytes(self):
        net = IDATAPLEX_FDR10
        assert net.allgatherv(8, 2_000_000) > net.allgatherv(8, 1_000)

    def test_costs_grow_with_ranks_for_latency(self):
        net = NetworkModel(alpha=1e-3, beta=0.0)
        assert net.allgatherv(64, 0) > net.allgatherv(4, 0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(alpha=-1)

    def test_barrier_log_scaling(self):
        net = NetworkModel(alpha=1.0, beta=0.0)
        assert net.barrier(8) == 3.0


class TestDatatypes:
    def test_pack_unpack_strings(self):
        strings = ["ACGT", "", "TTTTTT"]
        payload, lengths = pack_strings(strings)
        assert unpack_strings(payload, lengths) == strings

    def test_unpack_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unpack_strings(b"ABC", np.array([1, 1]))

    def test_pack_unpack_pairs(self):
        # GraphFromFasta's loop-2 wire format: one (m, 2) int64 array.
        packed = pair_array([(1, 2), (3, 4)])
        assert packed.shape == (2, 2) and packed.nbytes == 32
        assert unique_pairs([packed]) == [(1, 2), (3, 4)]

    def test_pack_empty_pairs(self):
        assert pair_array([]).shape == (0, 2)
        assert unique_pairs([pair_array([])]) == []

    def test_odd_flat_rejected(self):
        with pytest.raises(ValueError):
            pair_array(np.array([1, 2, 3]))

    def test_bad_pair_shape_rejected(self):
        with pytest.raises(ValueError):
            pair_array(np.ones((2, 3), dtype=np.int64))

    def test_nbytes_exact_for_buffers(self):
        assert nbytes_of(np.zeros(10, dtype=np.int64)) == 80
        assert nbytes_of(b"abc") == 3
        assert nbytes_of("abcd") == 4
        assert nbytes_of(None) == 0

    def test_nbytes_pickle_fallback(self):
        assert nbytes_of({"a": 1}) > 0


class TestCollectives:
    def test_bcast(self):
        def body(comm):
            return comm.bcast("hello" if comm.rank == 0 else None, root=0)

        res = mpirun(body, 4)
        assert res.outputs == ["hello"] * 4

    def test_allgather(self):
        def body(comm):
            return comm.allgather(comm.rank * 10)

        res = mpirun(body, 3)
        assert all(r == [0, 10, 20] for r in res.outputs)

    def test_allgatherv_identical_everywhere(self):
        def body(comm):
            return comm.allgatherv(np.full(comm.rank + 1, comm.rank))

        res = mpirun(body, 3)
        for r in res.outputs:
            assert [arr.tolist() for arr in r] == [[0], [1, 1], [2, 2, 2]]

    def test_collective_clock_sync(self):
        def body(comm):
            comm.clock.advance(float(comm.rank))
            comm.barrier()
            return comm.clock.now

        res = mpirun(body, 4, network=ZERO_COST)
        assert res.outputs == [3.0] * 4

    def test_comm_cost_charged(self):
        def body(comm):
            comm.allgatherv(np.zeros(1_000_000))
            return comm.clock.now

        res = mpirun(body, 4)
        assert all(t > 0 for t in res.outputs)
        assert all(s.comm_time > 0 for s in res.comm)


class TestLauncher:
    def test_single_rank_fast_path(self):
        res = mpirun(lambda comm: comm.size, 1)
        assert res.outputs == [1]

    def test_zero_ranks_rejected(self):
        with pytest.raises(CommError):
            mpirun(lambda comm: None, 0)

    def test_rank_failure_propagates(self):
        def body(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()

        with pytest.raises(CommError, match="rank 1"):
            mpirun(body, 3)

    def test_makespan_and_imbalance(self):
        def body(comm):
            comm.clock.advance(1.0 + comm.rank)

        res = mpirun(body, 4, network=ZERO_COST)
        assert res.makespan == 4.0
        assert res.min_rank_time == 1.0
        assert res.imbalance == pytest.approx(4.0)

    def test_args_kwargs_passed(self):
        def body(comm, a, b=0):
            return a + b + comm.rank

        res = mpirun(body, 2, 10, b=5)
        assert res.outputs == [15, 16]

    def test_deterministic_across_runs(self):
        def body(comm):
            data = comm.allgather(comm.rank**2)
            return sum(data)

        r1 = mpirun(body, 8)
        r2 = mpirun(body, 8)
        assert r1.outputs == r2.outputs
