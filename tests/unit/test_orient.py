"""Unit tests for component strand orientation."""

import numpy as np

from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import encode_kmer, kmer_windows_batch
from repro.trinity.chrysalis.debruijn import fasta_to_debruijn
from repro.trinity.chrysalis.orient import (
    directed_kmer_set,
    orient_component,
    reverse_votes,
)
from tests.reference_chrysalis import best_orientation


def node_codes(nodes, k):
    """Sorted codes of (k-1)-mer node strings: what ``DeBruijnGraph.nodes()``
    hands the vote."""
    return np.array(sorted(encode_kmer(n) for n in nodes), dtype=np.uint64)


def votes(seqs, nodes, k):
    """``reverse_votes`` of whole sequences: their clean (k-1)-mer windows,
    as the read pack holds them."""
    windows, seq_ids, _starts = kmer_windows_batch(seqs, k - 1)
    return reverse_votes(windows, seq_ids, len(seqs), nodes, k)

SRC = "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCAT"


class TestOrientComponent:
    def test_empty(self):
        assert orient_component([], 8) == []

    def test_single_kept_as_is(self):
        assert orient_component([SRC], 8) == [SRC]

    def test_rc_member_flipped(self):
        a = SRC[:25]
        b = SRC[15:]  # overlaps a by 10 bases
        out = orient_component([a, reverse_complement(b)], 8)
        assert out == [a, b]

    def test_forward_member_kept(self):
        a = SRC[:25]
        b = SRC[15:]
        assert orient_component([a, b], 8) == [a, b]

    def test_chain_orientation_propagates(self):
        a = SRC[:20]
        b = SRC[10:30]
        c = SRC[22:]
        out = orient_component([a, reverse_complement(b), reverse_complement(c)], 8)
        assert out == [a, b, c]

    def test_unrelated_member_defaults_forward(self):
        other = "TTGACCGTAGGCTAACCGTTAGGCC"
        out = orient_component([SRC, other], 8)
        assert out == [SRC, other]

    def test_deterministic(self):
        a = SRC[:25]
        b = reverse_complement(SRC[15:])
        assert orient_component([a, b], 8) == orient_component([a, b], 8)


class TestBestOrientation:
    """The read-orientation vote: the batched ``reverse_votes`` QuantifyGraph
    runs, checked against the scalar ``best_orientation`` oracle it replaced."""

    def test_forward_read(self):
        nodes = {SRC[i : i + 7] for i in range(len(SRC) - 6)}
        read = SRC[5:25]
        assert votes([read], node_codes(nodes, 8), 8).tolist() == [False]
        assert best_orientation(read, nodes, 8) == read

    def test_reverse_read_flipped(self):
        nodes = {SRC[i : i + 7] for i in range(len(SRC) - 6)}
        read = reverse_complement(SRC[5:25])
        assert votes([read, SRC[5:25]], node_codes(nodes, 8), 8).tolist() == [True, False]
        assert best_orientation(read, nodes, 8) == SRC[5:25]

    def test_tie_keeps_forward(self):
        read = "ACGTACGT"
        assert votes([read], node_codes(set(), 4), 4).tolist() == [False]
        assert best_orientation(read, set(), 4) == read
        # A palindrome hits the same nodes on both strands: an exact tie.
        nodes = {read[i : i + 3] for i in range(len(read) - 2)}
        assert votes([read], node_codes(nodes, 4), 4).tolist() == [False]

    def test_repeated_node_votes_once(self):
        # Forward: one node ("AAA") seen five times; reverse: two distinct
        # nodes seen once each.  Distinct counts decide, so reverse wins.
        read = "AAAAAAAGG"
        nodes = {"AAA", "CCT", "CTT"}
        assert votes([read], node_codes(nodes, 4), 4).tolist() == [True]
        assert best_orientation(read, nodes, 4) == reverse_complement(read)


class TestNodeCodes:
    def test_sorted_codes_one_per_clean_node(self):
        # The graph's node codes: sorted, one per distinct (k-1)-mer an
        # edge names; a contig window holding ``N`` names none.
        graph = fasta_to_debruijn(["TTTACG", "CCANGTTT", "ACGT"], 4)
        clean = {"TTT", "TTA", "TAC", "ACG", "CGT", "GTT"}
        assert graph.nodes().tolist() == sorted(encode_kmer(n) for n in clean)
        assert graph.nodes().tolist() == graph.rows()[0].tolist()
        assert fasta_to_debruijn([], 4).nodes().size == 0

    def test_votes_ignore_windows_off_the_graph(self):
        nodes = node_codes({"ACG", "CGT"}, 4)
        assert votes(["ACGT", "TTTT", "", "ACNGT"], nodes, 4).tolist() == [False] * 4
        assert votes(["ACGT"], node_codes(set(), 4), 4).tolist() == [False]


class TestDirectedKmerSet:
    def test_counts_distinct(self):
        s = directed_kmer_set("AAAA", 2)
        assert len(s) == 1

    def test_strand_sensitive(self):
        fwd = directed_kmer_set(SRC, 8)
        rev = directed_kmer_set(reverse_complement(SRC), 8)
        assert fwd != rev
