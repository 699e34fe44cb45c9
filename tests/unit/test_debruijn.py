"""Unit tests for de Bruijn graph construction and compaction.

The graph is two arrays (sorted k-mer edge codes + weights); what the
assertions say in strings is read through its decoded view
(``edge_weights()``) and the helpers of ``tests/graph_view.py``.  That
the arrays hold the same graph as the dict-of-dicts they replaced is the
property in ``tests/property/test_chrysalis_kernels_prop.py``.
"""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.seq.kmers import MAX_K, encode_kmer
from repro.trinity.chrysalis.debruijn import DeBruijnGraph, fasta_to_debruijn, spell_path
from tests import reference_chrysalis as ref
from tests.graph_view import (
    node_strings,
    predecessors,
    reweight,
    source_strings,
    successors,
    thread,
)


def _codes(kmers):
    return np.array([encode_kmer(kmer) for kmer in kmers], dtype=np.uint64)


class TestConstruction:
    def test_linear_sequence(self):
        g = fasta_to_debruijn(["ACGTAC"], 4)
        assert g.n_nodes == 4  # ACG CGT GTA TAC
        assert g.n_edges == 3
        assert node_strings(g) == ["ACG", "CGT", "GTA", "TAC"]

    def test_edge_weights_accumulate(self):
        g = fasta_to_debruijn(["ACGT", "ACGT"], 3)
        assert successors(g, "AC")["CG"] == 2.0

    def test_short_sequence_ignored(self):
        g = DeBruijnGraph(k=5)
        assert thread(g, "ACG") == 0
        assert g.n_nodes == 0
        assert fasta_to_debruijn(["ACG", ""], 5).n_edges == 0

    def test_bad_k_rejected(self):
        with pytest.raises(PipelineError):
            DeBruijnGraph(k=1)

    def test_k_beyond_one_code_rejected(self):
        # An edge is one packed k-mer: k=40 used to be accepted (strings)
        # and would now overflow the 64-bit code silently.
        for k in (MAX_K + 1, 40):
            with pytest.raises(PipelineError, match=str(MAX_K)):
                DeBruijnGraph(k=k)
            with pytest.raises(PipelineError, match=str(MAX_K)):
                fasta_to_debruijn(["ACGT" * 20], k)
        assert DeBruijnGraph(k=MAX_K).n_edges == 0

    def test_in_out_degrees(self):
        g = fasta_to_debruijn(["AACG", "TACG"], 3)  # AA->AC->CG, TA->AC->CG
        assert sorted(predecessors(g, "AC")) == ["AA", "TA"]
        assert list(successors(g, "AC")) == ["CG"]
        nodes, src, dst = g.rows()
        ac = node_strings(g).index("AC")
        assert np.count_nonzero(dst == ac) == 2 and np.count_nonzero(src == ac) == 1

    def test_sources(self):
        g = fasta_to_debruijn(["AACG", "TACG"], 3)
        assert source_strings(g) == ["AA", "TA"]

    def test_total_weight(self):
        g = DeBruijnGraph(k=3)
        thread(g, "ACGT", weight=2.0)
        assert g.weights.sum() == pytest.approx(4.0)

    def test_reweight(self):
        g = fasta_to_debruijn(["ACGT"], 3)
        reweight(g, lambda u, v, w: w * 10)
        assert successors(g, "AC")["CG"] == 10.0

    def test_edges_are_sorted_distinct_codes(self):
        g = fasta_to_debruijn(["TTTTACGT", "ACGTTTT"], 4)
        assert g.codes.dtype == np.uint64 and g.weights.dtype == np.float64
        assert np.all(g.codes[1:] > g.codes[:-1])
        assert g.edge_weights() == ref.edge_weights(
            ref.fasta_to_debruijn(["TTTTACGT", "ACGTTTT"], 4)
        )


def _kmers(seq, k):
    return [seq[i : i + k] for i in range(len(seq) - k + 1)]


class TestFilteredThreading:
    """Per-window threading (the oracle's ``add_sequence_filtered``) against
    the bulk ``add_kmers`` merge that replaced it: a k-mer is an edge."""

    def test_solid_filter_skips_edges(self):
        want = ref.DeBruijnGraph(k=3)
        # reject any k-mer containing 'T'
        touched = ref.add_sequence_filtered(want, "ACGTACG", lambda kmer: "T" not in kmer)
        assert touched < 5
        bulk = DeBruijnGraph(k=3)
        solid = [kmer for kmer in _kmers("ACGTACG", 3) if "T" not in kmer]
        bulk.add_kmers(_codes(solid), np.ones(len(solid)))
        assert bulk.edge_weights() == ref.edge_weights(want)
        for u, v in bulk.edge_weights():
            assert "T" not in u + v[-1]

    def test_all_solid_equals_unfiltered(self):
        a = fasta_to_debruijn(["ACGTACGT"], 4)
        b = ref.DeBruijnGraph(k=4)
        ref.add_sequence_filtered(b, "ACGTACGT", lambda _k: True)
        assert a.edge_weights() == ref.edge_weights(b)
        # The repeated k-mer ACGT arrives once, with its multiplicity.
        c = DeBruijnGraph(k=4)
        c.add_kmers(_codes(["TACG", "ACGT", "CGTA", "GTAC"]), np.array([1.0, 2.0, 1.0, 1.0]))
        assert c.edge_weights() == a.edge_weights()

    def test_merge_sums_with_what_is_there(self):
        g = fasta_to_debruijn(["ACGTA"], 4)  # ACGT, CGTA once each
        g.add_kmers(_codes(["CGTA", "GGGG", "CGTA"]), np.array([2.0, 5.0, 1.0]))
        assert g.edge_weights() == {
            ("ACG", "CGT"): 1.0, ("CGT", "GTA"): 4.0, ("GGG", "GGG"): 5.0,
        }
        g.add_kmers(np.empty(0, dtype=np.uint64), np.empty(0))
        assert g.n_edges == 3 and g.weights.sum() == 10.0


class TestNonAcgtContigs:
    """A k-window holding a non-ACGT base adds no edge and joins nothing —
    the reads' rule (DESIGN §5.16), on contigs too; lower-case bases read
    as upper-case.  The dict graph grew ``...N...`` nodes that the read
    vote skipped and Butterfly spelled into transcripts."""

    def test_n_window_is_a_gap(self):
        left, right = "ACGTTGCA", "GGATCCAT"
        g = fasta_to_debruijn([left + "N" + right], 4)
        want = fasta_to_debruijn([left, right], 4)
        assert g.edge_weights() == want.edge_weights()
        assert not any("N" in node for node in node_strings(g))
        # Nothing joins the two sides: no edge leaves the last node of `left`.
        assert successors(g, left[-3:]) == {}

    def test_all_windows_dirty(self):
        assert fasta_to_debruijn(["ACNGTNAC", "NNNN"], 4).n_edges == 0

    def test_lower_case_counts_as_upper_case(self):
        g = fasta_to_debruijn(["acgtTGca", "ACGTtgCA"], 4)
        assert g.edge_weights() == {
            edge: 2.0 for edge in fasta_to_debruijn(["ACGTTGCA"], 4).edge_weights()
        }


class TestSpellAndUnitigs:
    def test_spell_path_roundtrip(self):
        seq = "ACGTTGCA"
        nodes = _codes(seq[i : i + 3] for i in range(len(seq) - 2))
        assert spell_path(nodes, 4) == seq
        assert spell_path(nodes[:1], 4) == "ACG"

    def test_spell_empty(self):
        assert spell_path(np.empty(0, dtype=np.uint64), 4) == ""

    def test_single_unitig(self):
        g = fasta_to_debruijn(["ATCGGATTACA"], k=5)
        assert g.unitigs() == ["ATCGGATTACA"]

    def test_branching_splits_unitigs(self):
        # Two sequences sharing a middle: creates a branch point.
        seqs = ["AAACGTACCC", "TTACGTAGGG"]
        g = fasta_to_debruijn(seqs, k=4)
        unitigs = g.unitigs()
        assert len(unitigs) > 2
        joined = "".join(unitigs)
        assert "ACGTA" in joined
        assert unitigs == ref.fasta_to_debruijn(seqs, 4).unitigs()

    def test_fasta_to_debruijn_multiple(self):
        g = fasta_to_debruijn(["ACGTAC", "GTACGT"], k=4)
        assert g.n_nodes > 0
        assert g.edge_weights() == ref.edge_weights(
            ref.fasta_to_debruijn(["ACGTAC", "GTACGT"], 4)
        )
