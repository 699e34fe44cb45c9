"""Unit tests for the k-mer overlap-graph component kernel.

The vectorised Shiloach-Vishkin labelling must agree with a naive BFS
over the same edge list on any counter, and the components must be the
exact factorisation the distributed Inchworm relies on: every serial
contig's k-mers fall inside exactly one component.
"""

import numpy as np
import pytest

from repro.parallel.mpi_inchworm import component_setup
from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import canonical_kmers, kmer_array
from repro.seq.records import SeqRecord
from repro.trinity import TrinityConfig
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble, neighbours, probe
from repro.trinity.jellyfish import jellyfish_count
from repro.trinity.kmer_components import component_ids, kmer_components, overlap_edges
from tests.reference_components import bfs_labels, landing_edges

K = 25


def labels_of(counter):
    """The stage's labelling: the whole table's probe edges, unioned."""
    return kmer_components(len(counter), probe(counter)[1])


def random_counter(rng, n, k=8, canonical=True):
    codes = np.unique(rng.integers(0, 4**k, size=n, dtype=np.int64))
    values = rng.integers(1, 100, size=codes.size, dtype=np.int64)
    return KmerCounter(k, codes, values, canonical)


class TestAgainstNaiveBFS:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("canonical", [True, False])
    def test_random_kmer_sets(self, seed, canonical):
        rng = np.random.default_rng(seed)
        counter = random_counter(rng, n=400, canonical=canonical)
        expected = bfs_labels(len(counter), *landing_edges(neighbours(counter)))
        assert np.array_equal(labels_of(counter), expected)

    def test_real_counter(self, smoke_counts):
        filtered = smoke_counts.filtered(2)
        landing = neighbours(filtered)
        expected = bfs_labels(len(filtered), *landing_edges(landing))
        assert np.array_equal(labels_of(filtered), expected)

    def test_each_real_edge_once_from_its_lower_end(self, smoke_counts):
        # A well-formed table's landings are symmetric, so the ``u < v``
        # edges are every landing pair seen from its lower end.
        filtered = smoke_counts.filtered(2)
        landing = neighbours(filtered)
        u, v = landing_edges(landing)
        edges = probe(filtered)[1]
        both = {(a, b) for a, b in zip(u.tolist(), v.tolist()) if a != b}
        assert both == {(b, a) for a, b in both}
        assert sorted(zip(*edges.tolist())) == sorted((a, b) for a, b in both if a < b)


class TestEdgeCases:
    def test_empty_counter(self):
        counter = KmerCounter.empty(K, canonical=True)
        assert labels_of(counter).size == 0
        assert overlap_edges(neighbours(counter)).shape == (2, 0)
        assert component_ids(np.empty(0, dtype=np.intp)).size == 0

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
        counter = KmerCounter(8, codes, np.ones(3, dtype=np.int64), canonical=True)
        labels = labels_of(counter)
        assert np.array_equal(labels, np.arange(3))
        assert component_ids(labels).tolist() == [0, 1, 2]

    def test_members_are_dense_ascending_partition(self):
        rng = np.random.default_rng(3)
        counter = random_counter(rng, n=300)
        labels = labels_of(counter)
        ids = component_ids(labels)
        members = [np.flatnonzero(ids == c) for c in range(int(ids.max()) + 1)]
        # Dense component ids, every one with members, ascending by their
        # minimum member...
        assert all(m.size for m in members)
        firsts = [int(m[0]) for m in members]
        assert firsts == sorted(firsts)
        # ...and the label is the minimum member position.
        for m in members:
            assert np.all(labels[m] == m[0])

    def test_costs_are_member_count_sums(self):
        rng = np.random.default_rng(4)
        counter = random_counter(rng, n=200)
        landing, ids, costs = component_setup(counter, [probe(counter)])
        assert np.array_equal(landing, neighbours(counter))
        assert np.array_equal(ids, component_ids(labels_of(counter)))
        assert costs.shape == (int(ids.max()) + 1,)
        assert costs.sum() == pytest.approx(float(counter.values.sum()))
        for c, cost in enumerate(costs):
            assert cost == float(counter.values[ids == c].sum())


class TestContractedRounds:
    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("canonical", [True, False])
    def test_one_long_chain_is_one_component(self, canonical):
        # Thousands of k-mers on one path, positions scattered by code:
        # many rounds, each of which must re-point its live edges at their
        # roots — an edge kept on its original endpoints hooks a non-root
        # and can stay live forever.
        seq = "".join(np.random.default_rng(9).choice(list("ACGT"), size=3000).tolist())
        counts = jellyfish_count([SeqRecord("r0", seq)], K, canonical=canonical)
        labels = labels_of(counts)
        assert labels.size > 2900 and not labels.any()


class TestContigFactorisation:
    def test_every_serial_contig_stays_in_one_component(self, smoke_solid):
        """The fidelity regression behind the distributed stage.

        Every k-mer a serial contig consumed must resolve to a filtered
        position, and all of a contig's positions must share one
        component label — a greedy walk can never leave its seed's
        component.
        """
        cfg = InchwormConfig(seed=1)
        contigs = inchworm_assemble(smoke_solid, cfg)
        assert contigs
        filtered = smoke_solid
        labels = labels_of(filtered)
        for contig in contigs:
            codes = (
                canonical_kmers(contig.seq, filtered.k)
                if filtered.canonical
                else kmer_array(contig.seq, filtered.k)
            )
            pos, found = filtered.find(codes)
            assert found.all()
            assert np.unique(labels[pos]).size == 1

    def test_contigs_cover_components_at_most_once(self, smoke_solid):
        # Two different contigs may share a component (several seeds per
        # component), but a single contig never spans two: the map from
        # contigs to components is well-defined.
        cfg = InchwormConfig(seed=1)
        contigs = inchworm_assemble(smoke_solid, cfg)
        filtered = smoke_solid
        labels = labels_of(filtered)
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
    filtered = counts.filtered(TrinityConfig().min_kmer_count)
    ids = component_ids(labels_of(filtered))
    # Pinned: the miniature's filtered graph resolves to 228 components.
    assert int(ids.max()) + 1 == 228
    assert np.bincount(ids).min() >= 1 and ids.size == len(filtered)
