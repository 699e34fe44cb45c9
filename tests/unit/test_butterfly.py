"""Unit tests for Butterfly transcript reconstruction."""

import pytest

from repro.errors import PipelineError
from repro.trinity.butterfly import (
    ButterflyConfig,
    butterfly_assemble,
    butterfly_component,
)
from repro.trinity.chrysalis.debruijn import DeBruijnGraph, fasta_to_debruijn
from tests import reference_chrysalis as ref
from tests.graph_view import reweight, thread

SRC = "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCAT"


class TestLinearComponent:
    def test_single_path_reconstructed(self):
        g = fasta_to_debruijn([SRC], k=9)
        out = butterfly_component(0, g, ButterflyConfig())
        assert [t.seq for t in out] == [SRC]

    def test_transcript_metadata(self):
        g = fasta_to_debruijn([SRC], k=9)
        (t,) = butterfly_component(7, g, ButterflyConfig())
        assert t.component == 7
        assert t.name == "comp7_seq0"

    def test_min_length_filter(self):
        g = fasta_to_debruijn(["ACGTACGTA"], k=4)
        out = butterfly_component(0, g, ButterflyConfig(min_transcript_length=100))
        assert out == []


class TestIsoforms:
    def _two_isoform_graph(self):
        # Shared prefix/suffix with alternative middles (exon skipping).
        prefix = "ATCGGATTACAG"
        mid = "TCCGGTTAACGA"
        suffix = "GCTTGGCATGCA"
        iso1 = prefix + mid + suffix
        iso2 = prefix + suffix
        g = DeBruijnGraph(k=7)
        thread(g, iso1, weight=5)
        thread(g, iso2, weight=5)
        return g, iso1, iso2

    def test_both_isoforms_enumerated(self):
        g, iso1, iso2 = self._two_isoform_graph()
        out = butterfly_component(0, g, ButterflyConfig())
        seqs = {t.seq for t in out}
        assert iso1 in seqs
        assert iso2 in seqs

    def test_weak_branch_pruned(self):
        g, iso1, iso2 = self._two_isoform_graph()
        # Make the skip path's support negligible.
        skip = iso2[len("ATCGGATTACAG") - 5 : len("ATCGGATTACAG") + 1]  # first node off iso1
        reweight(g, lambda u, v, w: 0.1 if v == skip else w)
        out = butterfly_component(0, g, ButterflyConfig(min_edge_fraction=0.3))
        seqs = {t.seq for t in out}
        assert iso1 in seqs
        assert iso2 not in seqs

    def test_max_paths_cap(self):
        g, _i1, _i2 = self._two_isoform_graph()
        out = butterfly_component(0, g, ButterflyConfig(max_paths_per_component=1))
        assert len(out) == 1


class TestCyclicFallback:
    def test_cyclic_graph_yields_unitigs(self):
        g = DeBruijnGraph(k=4)
        thread(g, "ACGTACGTACGT")  # cycle: no sources
        assert g.sources().size == 0
        cfg = ButterflyConfig(min_transcript_length=1)
        out = butterfly_component(0, g, cfg)
        want = ref.DeBruijnGraph(k=4)
        want.add_sequence("ACGTACGTACGT")
        assert [(t.name, t.seq) for t in out] == [
            (t.name, t.seq) for t in ref.butterfly_component(0, want, cfg)
        ]


class TestDedup:
    """The containment oracle ``butterfly_component``'s paths are held to
    (``test_chrysalis_kernels_prop.py``: it returns them unchanged)."""

    def test_contained_removed(self):
        assert ref.dedup_contained(["ACGTACGT", "CGTA"]) == ["ACGTACGT"]

    def test_distinct_kept(self):
        out = ref.dedup_contained(["ACGTAAAA", "TTTTACGT"])
        assert sorted(out) == ["ACGTAAAA", "TTTTACGT"]

    def test_duplicates_collapsed(self):
        assert ref.dedup_contained(["ACGT", "ACGT"]) == ["ACGT"]

    def test_many_identical_collapse_to_one(self):
        assert ref.dedup_contained(["TTAGC"] * 5) == ["TTAGC"]

    def test_containment_chain_keeps_only_longest(self):
        # A ⊃ B ⊃ C presented in reverse (shortest first): the length-sort
        # must still resolve the whole chain to the longest member.
        chain = ["GT", "CGTA", "ACGTAC", "AACGTACC"]
        assert ref.dedup_contained(chain) == ["AACGTACC"]

    def test_two_chains_interleaved(self):
        out = ref.dedup_contained(["AC", "TTTTGG", "ACACAC", "TTGG"])
        assert sorted(out) == ["ACACAC", "TTTTGG"]

    def test_equal_length_non_contained_both_kept(self):
        out = ref.dedup_contained(["AAAA", "TTTT"])
        assert out == sorted(out, key=lambda s: (-len(s), s))
        assert set(out) == {"AAAA", "TTTT"}

    def test_empty_input(self):
        assert ref.dedup_contained([]) == []


class TestResolvedMinLength:
    def test_zero_resolves_to_twice_node_length(self):
        # The default filters out single-node outputs: a de Bruijn node is
        # a (k-1)-mer, so the boundary is 2*(k-1).
        assert ButterflyConfig().resolved_min_length(25) == 48
        assert ButterflyConfig().resolved_min_length(2) == 2

    def test_explicit_value_wins_at_any_k(self):
        cfg = ButterflyConfig(min_transcript_length=7)
        assert cfg.resolved_min_length(2) == 7
        assert cfg.resolved_min_length(1000) == 7

    def test_boundary_filtering_at_small_k(self):
        # A k=4 graph of one 6-mer spells exactly 2*(k-1) = 6 bases: the
        # default threshold keeps it, one more filters it.
        g = fasta_to_debruijn(["ACGTAC"], k=4)
        kept = butterfly_component(0, g, ButterflyConfig())
        assert [t.seq for t in kept] == ["ACGTAC"]
        dropped = butterfly_component(0, g, ButterflyConfig(min_transcript_length=7))
        assert dropped == []


class TestAssemble:
    def test_component_order_deterministic(self):
        g1 = fasta_to_debruijn([SRC], k=9)
        g2 = fasta_to_debruijn([SRC[::-1].translate(str.maketrans("ACGT", "TGCA"))], k=9)
        out = butterfly_assemble({5: g1, 2: g2}, ButterflyConfig())
        comps = [t.component for t in out]
        assert comps == sorted(comps)

    def test_insertion_order_never_leaks_into_output(self):
        # The merge order of the distributed Butterfly relies on assemble
        # iterating sorted component ids, not dict insertion order.
        import random

        graphs = {
            cid: fasta_to_debruijn([SRC[cid % 7 :]], k=9) for cid in range(11)
        }
        reference = butterfly_assemble(graphs, ButterflyConfig())
        rng = random.Random(3)
        for _ in range(3):
            cids = list(graphs)
            rng.shuffle(cids)
            shuffled = {cid: graphs[cid] for cid in cids}
            assert butterfly_assemble(shuffled, ButterflyConfig()) == reference

    def test_seed_perturbs_branch_order_not_validity(self):
        prefix, mid, suffix = "ATCGGATTACAG", "TCCGGTTAACGA", "GCTTGGCATGCA"
        g = DeBruijnGraph(k=7)
        thread(g, prefix + mid + suffix, weight=5)
        thread(g, prefix + suffix, weight=5)
        a = butterfly_component(0, g, ButterflyConfig(seed=1))
        b = butterfly_component(0, g, ButterflyConfig(seed=2))
        assert {t.seq for t in a} == {t.seq for t in b}  # same full set here


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"min_edge_fraction": -0.01}, "min_edge_fraction"),
            ({"min_edge_fraction": 1.01}, "min_edge_fraction"),
            ({"max_paths_per_component": 0}, "max_paths_per_component"),
            ({"max_path_nodes": 0}, "max_path_nodes"),
        ],
    )
    def test_out_of_range_rejected(self, kwargs, field):
        with pytest.raises(PipelineError, match=field):
            ButterflyConfig(**kwargs)

    def test_bounds_accepted(self):
        for frac in (0.0, 1.0):
            assert ButterflyConfig(min_edge_fraction=frac).min_edge_fraction == frac
        assert ButterflyConfig(max_paths_per_component=1, max_path_nodes=1)
