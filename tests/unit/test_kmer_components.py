"""Unit tests for the k-mer overlap-graph component kernel.

The vectorised Shiloach-Vishkin labelling must agree with a naive BFS
over the same edge list on any counter, and the components must be the
exact factorisation the distributed Inchworm relies on: every serial
contig's k-mers fall inside exactly one component.
"""

from collections import deque

import numpy as np
import pytest

from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import canonical_kmers, kmer_array
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble, neighbours
from repro.trinity.jellyfish import jellyfish_count
from repro.trinity.kmer_components import (
    component_costs,
    component_members,
    kmer_components,
    overlap_edges,
)

K = 25


def bfs_labels(n, u, v):
    """Reference labelling: BFS from each unvisited node, min-position label."""
    adj = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    labels = np.full(n, -1, dtype=np.intp)
    for start in range(n):
        if labels[start] != -1:
            continue
        seen = [start]
        labels[start] = start
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if labels[y] == -1:
                    labels[y] = start
                    seen.append(y)
                    queue.append(y)
        lo = min(seen)
        labels[np.array(seen)] = lo
    return labels


def random_counter(rng, n, k=8):
    codes = np.unique(rng.integers(0, 4**k, size=n, dtype=np.int64))
    values = rng.integers(1, 100, size=codes.size, dtype=np.int64)
    return KmerCounter(k, codes, values)


class TestAgainstNaiveBFS:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("canonical", [True, False])
    def test_random_kmer_sets(self, seed, canonical):
        rng = np.random.default_rng(seed)
        counter = random_counter(rng, n=400)
        u, v = overlap_edges(neighbours(counter, canonical))
        expected = bfs_labels(len(counter), u, v)
        assert np.array_equal(kmer_components(neighbours(counter, canonical)), expected)

    def test_real_counter(self, smoke_counts):
        filtered = smoke_counts.index.filtered(2)
        u, v = overlap_edges(neighbours(filtered, smoke_counts.canonical))
        expected = bfs_labels(len(filtered), u, v)
        assert np.array_equal(
            kmer_components(neighbours(filtered, smoke_counts.canonical)), expected
        )


class TestEdgeCases:
    def test_empty_counter(self):
        counter = KmerCounter(K, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert kmer_components(neighbours(counter)).size == 0
        u, v = overlap_edges(neighbours(counter))
        assert u.size == 0 and v.size == 0
        assert component_members(np.empty(0, dtype=np.intp)) == []

    def test_singletons_label_themselves(self):
        # K-mers chosen so no (k-1)-overlap neighbour of one (on either
        # strand) is another: every position is its own component.
        from repro.seq.kmers import encode_kmer

        codes = np.sort(
            np.array(
                [encode_kmer(s) for s in ("AACCGGTT", "CATGCATG", "TTGGCCAA")],
                dtype=np.int64,
            )
        )
        counter = KmerCounter(8, codes, np.ones(3, dtype=np.int64))
        labels = kmer_components(neighbours(counter))
        assert np.array_equal(labels, np.arange(3))
        members = component_members(labels)
        assert [m.tolist() for m in members] == [[0], [1], [2]]

    def test_members_are_dense_ascending_partition(self):
        rng = np.random.default_rng(3)
        counter = random_counter(rng, n=300)
        labels = kmer_components(neighbours(counter))
        members = component_members(labels)
        # Dense component ids, ascending labels, ascending members...
        assert sorted(np.concatenate(members).tolist()) == list(range(len(counter)))
        firsts = [int(m[0]) for m in members]
        assert firsts == sorted(firsts)
        assert all(np.all(np.diff(m) > 0) for m in members if m.size > 1)
        # ...and the label is the minimum member position.
        for m in members:
            assert np.all(labels[m] == m[0])

    def test_costs_are_member_count_sums(self):
        rng = np.random.default_rng(4)
        counter = random_counter(rng, n=200)
        members = component_members(kmer_components(neighbours(counter)))
        costs = component_costs(counter, members)
        assert costs.shape == (len(members),)
        assert costs.sum() == pytest.approx(float(counter.values.sum()))
        for m, c in zip(members, costs):
            assert c == pytest.approx(float(counter.values[m].sum()))


class TestContigFactorisation:
    def test_every_serial_contig_stays_in_one_component(self, smoke_counts):
        """The fidelity regression behind the distributed stage.

        Every k-mer a serial contig consumed must resolve to a filtered
        position, and all of a contig's positions must share one
        component label — a greedy walk can never leave its seed's
        component.
        """
        cfg = InchwormConfig(seed=1)
        contigs = inchworm_assemble(smoke_counts, cfg)
        assert contigs
        filtered = smoke_counts.index.filtered(cfg.min_kmer_count)
        labels = kmer_components(neighbours(filtered, smoke_counts.canonical))
        for contig in contigs:
            codes = (
                canonical_kmers(contig.seq, filtered.k)
                if smoke_counts.canonical
                else kmer_array(contig.seq, filtered.k)
            )
            pos, found = filtered.find(codes)
            assert found.all()
            assert np.unique(labels[pos]).size == 1

    def test_contigs_cover_components_at_most_once(self, smoke_counts):
        # Two different contigs may share a component (several seeds per
        # component), but a single contig never spans two: the map from
        # contigs to components is well-defined.
        cfg = InchwormConfig(seed=1)
        contigs = inchworm_assemble(smoke_counts, cfg)
        filtered = smoke_counts.index.filtered(cfg.min_kmer_count)
        labels = kmer_components(neighbours(filtered, smoke_counts.canonical))
        spans = []
        for contig in contigs:
            codes = canonical_kmers(contig.seq, filtered.k)
            pos, found = filtered.find(codes)
            spans.append(set(labels[pos].tolist()))
        assert all(len(s) == 1 for s in spans)


def test_whitefly_regression_component_count():
    from repro.simdata import get_recipe
    from repro.simdata.reads import flatten_reads

    _txome, pairs = get_recipe("whitefly-mini").materialize(seed=0)
    counts = jellyfish_count(flatten_reads(pairs), K)
    filtered = counts.index.filtered(InchwormConfig().min_kmer_count)
    labels = kmer_components(neighbours(filtered, counts.canonical))
    members = component_members(labels)
    # Pinned: the miniature's filtered graph resolves to 228 components.
    assert len(members) == 228
    assert sum(m.size for m in members) == len(filtered)
