"""Unit tests for union-find clustering and components."""

import numpy as np
import pytest

from repro.trinity.chrysalis.components import Component, build_components, component_of_map
from repro.trinity.kmer_components import kmer_components


class TestUnionFind:
    """The package's one union-find, the Shiloach-Vishkin labelling of
    ``kmer_components``, over contig pairs as ``build_components`` runs it."""

    def test_initially_disjoint(self):
        assert kmer_components(3, np.empty((2, 0), dtype=np.int64)).tolist() == [0, 1, 2]

    def test_union_merges(self):
        labels = kmer_components(3, np.array([[0], [2]]))
        assert labels[0] == labels[2] != labels[1]

    def test_union_idempotent(self):
        once = kmer_components(3, np.array([[0], [1]]))
        assert np.array_equal(kmer_components(3, np.array([[0, 1, 0], [1, 0, 1]])), once)

    def test_transitivity(self):
        labels = kmer_components(4, np.array([[0, 1], [1, 2]]))
        assert labels[0] == labels[2] and labels[3] != labels[0]

    def test_groups_canonical_keys(self):
        comps = build_components(5, [(4, 2), (2, 3)])
        assert comps[2] == Component(id=2, members=(2, 3, 4))
        assert comps[0] == Component(id=0, members=(0,))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            build_components(-1, [])

    def test_len(self):
        assert kmer_components(7, np.empty((2, 0), dtype=np.int64)).size == 7


class TestComponent:
    def test_id_must_be_min(self):
        with pytest.raises(ValueError):
            Component(id=2, members=(1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Component(id=0, members=())

    def test_len(self):
        assert len(Component(id=1, members=(1, 2, 3))) == 3


class TestBuildComponents:
    def test_singletons_kept(self):
        comps = build_components(3, [])
        assert [c.id for c in comps] == [0, 1, 2]

    def test_pairs_merge(self):
        comps = build_components(4, [(0, 2), (2, 3)])
        assert [c.members for c in comps] == [(0, 2, 3), (1,)]

    def test_order_invariant(self):
        pairs_a = [(0, 1), (2, 3), (1, 2)]
        pairs_b = [(1, 2), (0, 1), (2, 3)]
        assert build_components(4, pairs_a) == build_components(4, pairs_b)

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            build_components(2, [(0, 5)])

    def test_component_of_map(self):
        comps = build_components(4, [(1, 3)])
        table = component_of_map(comps, 4)
        assert table == [0, 1, 2, 1]

    def test_component_of_map_requires_cover(self):
        comps = [Component(id=0, members=(0,))]
        with pytest.raises(ValueError):
            component_of_map(comps, 2)
