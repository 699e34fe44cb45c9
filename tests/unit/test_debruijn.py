"""Unit tests for de Bruijn graph construction and compaction."""

import pytest

from repro.errors import PipelineError
from repro.trinity.chrysalis.debruijn import DeBruijnGraph, fasta_to_debruijn, spell_path
from tests.reference_chrysalis import add_sequence_filtered


class TestConstruction:
    def test_linear_sequence(self):
        g = DeBruijnGraph(k=4)
        g.add_sequence("ACGTAC")
        assert g.n_nodes == 4  # ACG CGT GTA TAC
        assert g.n_edges == 3

    def test_edge_weights_accumulate(self):
        g = DeBruijnGraph(k=3)
        g.add_sequence("ACGT")
        g.add_sequence("ACGT")
        assert g.successors("AC")["CG"] == 2.0

    def test_short_sequence_ignored(self):
        g = DeBruijnGraph(k=5)
        assert g.add_sequence("ACG") == 0
        assert g.n_nodes == 0

    def test_bad_k_rejected(self):
        with pytest.raises(PipelineError):
            DeBruijnGraph(k=1)

    def test_in_out_degrees(self):
        g = DeBruijnGraph(k=3)
        g.add_sequence("AACG")  # AA->AC->CG
        g.add_sequence("TACG")  # TA->AC->CG
        assert g.in_degree("AC") == 2
        assert g.out_degree("AC") == 1

    def test_sources(self):
        g = DeBruijnGraph(k=3)
        g.add_sequence("AACG")
        g.add_sequence("TACG")
        assert g.sources() == ["AA", "TA"]

    def test_total_weight(self):
        g = DeBruijnGraph(k=3)
        g.add_sequence("ACGT", weight=2.0)
        assert g.total_weight() == pytest.approx(4.0)

    def test_reweight(self):
        g = DeBruijnGraph(k=3)
        g.add_sequence("ACGT")
        g.reweight(lambda u, v, w: w * 10)
        assert g.successors("AC")["CG"] == 10.0


def _kmers(seq, k):
    return [seq[i : i + k] for i in range(len(seq) - k + 1)]


class TestFilteredThreading:
    """Per-window threading (the oracle's ``add_sequence_filtered``) against
    the bulk ``add_kmers`` update that replaced it: a k-mer is an edge."""

    def test_solid_filter_skips_edges(self):
        g = DeBruijnGraph(k=3)
        # reject any k-mer containing 'T'
        touched = add_sequence_filtered(g, "ACGTACG", lambda kmer: "T" not in kmer)
        assert touched < 5
        for u, outs in g.edges.items():
            for v in outs:
                assert "T" not in u + v[-1]
        bulk = DeBruijnGraph(k=3)
        solid = [kmer for kmer in _kmers("ACGTACG", 3) if "T" not in kmer]
        bulk.add_kmers(solid, [1.0] * len(solid))
        assert (bulk.edges, bulk._in_edges) == (g.edges, g._in_edges)

    def test_all_solid_equals_unfiltered(self):
        a = DeBruijnGraph(k=4)
        a.add_sequence("ACGTACGT")
        b = DeBruijnGraph(k=4)
        add_sequence_filtered(b, "ACGTACGT", lambda _k: True)
        assert a.edges == b.edges
        # The repeated k-mer ACGT arrives once, with its multiplicity.
        c = DeBruijnGraph(k=4)
        c.add_kmers(["ACGT", "CGTA", "GTAC", "TACG"], [2.0, 1.0, 1.0, 1.0])
        assert (c.edges, c._in_edges) == (a.edges, a._in_edges)


class TestSpellAndUnitigs:
    def test_spell_path_roundtrip(self):
        g = DeBruijnGraph(k=4)
        seq = "ACGTTGCA"
        g.add_sequence(seq)
        nodes = [seq[i : i + 3] for i in range(len(seq) - 2)]
        assert spell_path(nodes) == seq

    def test_spell_empty(self):
        assert spell_path([]) == ""

    def test_single_unitig(self):
        g = fasta_to_debruijn(["ATCGGATTACA"], k=5)
        assert g.unitigs() == ["ATCGGATTACA"]

    def test_branching_splits_unitigs(self):
        # Two sequences sharing a middle: creates a branch point.
        g = fasta_to_debruijn(["AAACGTACCC", "TTACGTAGGG"], k=4)
        unitigs = g.unitigs()
        assert len(unitigs) > 2
        joined = "".join(unitigs)
        assert "ACGTA" in joined

    def test_fasta_to_debruijn_multiple(self):
        g = fasta_to_debruijn(["ACGTAC", "GTACGT"], k=4)
        assert g.n_nodes > 0
