"""Unit tests for alltoall and the identity histogram."""

import pytest

from repro.errors import CommError
from repro.mpi import mpirun
from repro.validation.fasta_align import MatchCategories, identity_histogram


class TestAlltoall:
    def test_transpose_semantics(self):
        def body(comm):
            return comm.alltoall([f"{comm.rank}->{j}" for j in range(comm.size)])

        res = mpirun(body, 3)
        assert res.outputs[1] == ["0->1", "1->1", "2->1"]

    def test_length_checked(self):
        def body(comm):
            return comm.alltoall([1])

        with pytest.raises(CommError):
            mpirun(body, 3)


class TestIdentityHistogram:
    def test_bins_counts(self):
        cats = MatchCategories(3, 0, 0, 3, 0, partial_identities=[0.05, 0.55, 0.95])
        hist = identity_histogram(cats, bins=10)
        assert sum(n for _lo, n in hist) == 3
        assert hist[0] == (0.0, 1)
        assert hist[9] == (0.9, 1)

    def test_identity_one_clipped_to_last_bin(self):
        cats = MatchCategories(1, 0, 0, 1, 0, partial_identities=[1.0])
        hist = identity_histogram(cats, bins=4)
        assert hist[-1][1] == 1

    def test_bad_bins(self):
        with pytest.raises(Exception):
            identity_histogram(MatchCategories(0, 0, 0, 0, 0), bins=0)
