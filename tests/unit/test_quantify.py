"""Unit tests for QuantifyGraph."""

import numpy as np
import pytest

from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import encode_kmer
from repro.seq.records import SeqRecord
from repro.trinity.chrysalis.debruijn import fasta_to_debruijn
from repro.trinity.chrysalis.quantify import quantify_graph
from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment
from repro.trinity.jellyfish import jellyfish_count

SRC = "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCAT"
K = 9


def make_assignment(read_index, component):
    return ReadAssignment(read_index, f"r{read_index}", component, 5, 0, 20)


class TestQuantify:
    def test_read_weight_added(self):
        graphs = {0: fasta_to_debruijn([SRC], K)}
        reads = [SeqRecord("r0", SRC[3:25])]
        quants = quantify_graph(graphs, reads, [make_assignment(0, 0)])
        assert quants[0].n_reads == 1
        assert quants[0].read_edge_weight > 0

    def test_unassigned_reads_skipped(self):
        graphs = {0: fasta_to_debruijn([SRC], K)}
        reads = [SeqRecord("r0", SRC[3:25])]
        quants = quantify_graph(graphs, reads, [make_assignment(0, -1)])
        assert quants[0].n_reads == 0
        assert quants[0].read_edge_weight == 0

    def test_missing_component_skipped(self):
        graphs = {0: fasta_to_debruijn([SRC], K)}
        reads = [SeqRecord("r0", SRC[3:25])]
        quants = quantify_graph(graphs, reads, [make_assignment(0, 9)])
        assert quants[0].n_reads == 0

    def test_reverse_read_threads_forward(self):
        graphs = {0: fasta_to_debruijn([SRC], K)}
        n_nodes_before = graphs[0].n_nodes
        reads = [SeqRecord("r0", reverse_complement(SRC[3:25]))]
        quantify_graph(graphs, reads, [make_assignment(0, 0)])
        # Orientation correction means no new (reverse-strand) nodes.
        assert graphs[0].n_nodes == n_nodes_before

    def test_solid_filter_blocks_error_kmers(self):
        graphs = {0: fasta_to_debruijn([SRC], K)}
        n_nodes_before = graphs[0].n_nodes
        bad = SRC[3:14] + "T" + SRC[15:25]  # one substitution mid-read
        counts = jellyfish_count([SeqRecord("x", SRC), SeqRecord("y", SRC)], K).filtered(2)
        reads = [SeqRecord("r0", bad)]
        quantify_graph(graphs, reads, [make_assignment(0, 0)], kmer_counts=counts)
        # Error k-mers are not solid, so no junk nodes appear.
        assert graphs[0].n_nodes == n_nodes_before

    def test_without_filter_error_kmers_pollute(self):
        graphs = {0: fasta_to_debruijn([SRC], K)}
        n_nodes_before = graphs[0].n_nodes
        bad = SRC[3:14] + ("T" if SRC[14] != "T" else "G") + SRC[15:25]
        quantify_graph(graphs, [SeqRecord("r0", bad)], [make_assignment(0, 0)])
        assert graphs[0].n_nodes > n_nodes_before

    def test_mean_support(self):
        graphs = {0: fasta_to_debruijn([SRC], K)}
        reads = [SeqRecord("r0", SRC)]
        quants = quantify_graph(graphs, reads, [make_assignment(0, 0)])
        assert quants[0].read_edge_weight / quants[0].graph.n_edges == pytest.approx(1.0)


def _with_n(seq, at):
    return seq[:at] + "N" + seq[at + 1 :]


def _expected_edges(seqs, k):
    """Contig graph plus one unit of weight per clean k-mer window of
    ``seqs`` — the N rule spelled with strings."""
    g = fasta_to_debruijn([SRC], k)
    n_reads = 0
    weight = 0.0
    for seq in seqs:
        clean = [
            seq[i : i + k] for i in range(len(seq) - k + 1) if "N" not in seq[i : i + k]
        ]
        g.add_kmers(
            np.array([encode_kmer(kmer) for kmer in clean], dtype=np.uint64),
            np.ones(len(clean)),
        )
        n_reads += bool(clean)
        weight += len(clean)
    return g, n_reads, weight


class TestReadsWithN:
    """A window holding a non-ACGT base is a gap, never an edge — with and
    without the solid filter (at the parent the filter raised ``mask
    length 26 != window count 51`` and the unfiltered path threaded
    ``...N...`` nodes into the graph and on into transcripts)."""

    READ = SRC[2:32]  # 30 bases: 22 windows at k=9

    @pytest.fixture(params=["solid", "unfiltered"])
    def kmer_counts(self, request):
        if request.param == "unfiltered":
            return None
        return jellyfish_count([SeqRecord("x", SRC), SeqRecord("y", SRC)], K).filtered(2)

    @pytest.mark.parametrize("at", [0, 15, 29], ids=["first", "mid", "last"])
    def test_n_window_is_a_gap(self, kmer_counts, at):
        read = _with_n(self.READ, at)
        graphs = {0: fasta_to_debruijn([SRC], K)}
        quants = quantify_graph(
            graphs, [SeqRecord("r0", read)], [make_assignment(0, 0)],
            kmer_counts=kmer_counts,
        )
        want, n_reads, weight = _expected_edges([read], K)
        assert graphs[0].edge_weights() == want.edge_weights()
        assert (quants[0].n_reads, quants[0].read_edge_weight) == (n_reads, weight)
        assert n_reads == 1 and weight == 22 - min(K, at + 1, 30 - at)
        assert not any("N" in u + v for u, v in graphs[0].edge_weights())

    def test_reverse_strand_read_with_n(self, kmer_counts):
        read = reverse_complement(_with_n(self.READ, 15))
        graphs = {0: fasta_to_debruijn([SRC], K)}
        quantify_graph(
            graphs, [SeqRecord("r0", read)], [make_assignment(0, 0)],
            kmer_counts=kmer_counts,
        )
        want, _n, _w = _expected_edges([_with_n(self.READ, 15)], K)
        assert graphs[0].edge_weights() == want.edge_weights()

    def test_all_n_and_short_reads_count_nothing(self, kmer_counts):
        reads = [
            SeqRecord("r0", "N" * 30),
            SeqRecord("r1", SRC[:K - 1]),  # shorter than k: no window
            SeqRecord("r2", _with_n(SRC[:K + 3], 6)),  # every window holds the N
            SeqRecord("r3", ""),
        ]
        graphs = {0: fasta_to_debruijn([SRC], K)}
        before = graphs[0].edge_weights()
        quants = quantify_graph(
            graphs, reads, [make_assignment(i, 0) for i in range(len(reads))],
            kmer_counts=kmer_counts,
        )
        assert (quants[0].n_reads, quants[0].read_edge_weight) == (0, 0.0)
        assert graphs[0].edge_weights() == before

    def test_n_read_beside_clean_reads(self, kmer_counts):
        reads = [
            SeqRecord("r0", self.READ),
            SeqRecord("r1", _with_n(self.READ, 15)),
            SeqRecord("r2", reverse_complement(self.READ)),
        ]
        graphs = {0: fasta_to_debruijn([SRC], K)}
        quants = quantify_graph(
            graphs, reads, [make_assignment(i, 0) for i in range(3)],
            kmer_counts=kmer_counts,
        )
        want, n_reads, weight = _expected_edges(
            [self.READ, _with_n(self.READ, 15), self.READ], K
        )
        assert graphs[0].edge_weights() == want.edge_weights()
        assert (quants[0].n_reads, quants[0].read_edge_weight) == (n_reads, weight)
