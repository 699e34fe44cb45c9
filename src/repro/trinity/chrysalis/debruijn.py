"""FastaToDebruijn: per-component de Bruijn graphs, held as two arrays.

Nodes are (k-1)-mers; an edge u->v exists for every k-mer whose prefix is
u and suffix is v, so an edge *is* a k-mer: its packed code names both
ends (prefix node ``code >> 2``, suffix node ``code & mask(k-1)``) and a
graph is its sorted distinct edge codes plus one weight per edge.  Edge
weights count occurrences across the component's contigs (and later,
reads via QuantifyGraph).  Butterfly walks these graphs to reconstruct
transcripts.

Everything else is a derived view (:meth:`DeBruijnGraph.rows`).  Edges
sorted by code are sorted by prefix node, so a node's <= 4 successors are
one run of the edge arrays — the CSR comes free — and code order is
string order at equal length, so every "sorted for determinism" of the
string-keyed graph is the arrays' own order.  Building is counting,
threading reads is a merge of sorted (code, weight) pairs
(:meth:`DeBruijnGraph.add_kmers`), and strings appear only when a path is
spelled (:func:`spell_path`).  The dict-of-dicts graph this replaced is
the oracle in ``tests/reference_chrysalis.py``.

Codes cannot say what strings said about a non-ACGT base, so the reads'
rule (DESIGN §5.16) holds for contigs too: a k-window holding one adds
no edge and joins nothing.  Lower-case bases read as upper-case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import CODE_TO_BASE
from repro.seq.kmer_index import decode_kmers
from repro.seq.kmers import MAX_K, kmer_windows_batch


@dataclass(eq=False)
class DeBruijnGraph:
    """A weighted de Bruijn graph: sorted distinct k-mer edge codes
    (``codes``) and their weights (``weights``), index-aligned."""

    k: int
    codes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    def __post_init__(self) -> None:
        if not 2 <= self.k <= MAX_K:
            raise PipelineError(
                f"de Bruijn k must be in [2, {MAX_K}] (an edge is one packed "
                f"k-mer code), got {self.k}"
            )

    # -- construction ------------------------------------------------------
    def add_kmers(self, codes: np.ndarray, weights: np.ndarray) -> None:
        """Add ``weights[i]`` to the edge of k-mer code ``codes[i]``.

        A merge of (code, weight) pairs into the sorted edge arrays: new
        codes become edges, repeated ones — in the batch or already in
        the graph — sum.  QuantifyGraph counts a component's read k-mers
        in arrays and lands them here in one call.
        """
        if not len(codes):  # walk-only components thread nothing
            return
        merged = np.concatenate((self.codes, np.asarray(codes, dtype=np.uint64)))
        self.codes, edge = np.unique(merged, return_inverse=True)
        self.weights = np.bincount(
            edge,
            weights=np.concatenate((self.weights, np.asarray(weights, dtype=np.float64))),
            minlength=self.codes.size,
        )

    # -- derived views -----------------------------------------------------
    @property
    def n_edges(self) -> int:
        return int(self.codes.size)

    @property
    def n_nodes(self) -> int:
        return int(self.nodes().size)

    def _ends(self) -> np.ndarray:
        """Every edge's prefix node code, then every edge's suffix node code."""
        suffix = np.uint64((1 << (2 * (self.k - 1))) - 1)
        return np.concatenate((self.codes >> np.uint64(2), self.codes & suffix))

    def nodes(self) -> np.ndarray:
        """Sorted distinct (k-1)-mer node codes (a node exists iff an edge
        names it)."""
        ends = np.sort(self._ends())
        return ends[np.concatenate(([True], ends[1:] != ends[:-1]))[: ends.size]]

    def rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(nodes, src, dst)``: :meth:`nodes`, and per edge the rows of
        its prefix and suffix node in it.  ``src`` ascends with the edges,
        so a node's out-edges are one run of them, ordered by last base."""
        nodes, row = np.unique(self._ends(), return_inverse=True)
        return nodes, row[: self.codes.size], row[self.codes.size :]

    def sources(self) -> np.ndarray:
        """Codes of the nodes with no in-edge (path starts), ascending."""
        nodes, _src, dst = self.rows()
        return nodes[np.bincount(dst, minlength=nodes.size) == 0]

    def edge_weights(self) -> Dict[Tuple[str, str], float]:
        """The graph decoded to ``{(prefix node, suffix node): weight}`` —
        a view for tests, examples and debugging; no kernel reads it."""
        kmers = decode_kmers(self.codes, self.k)
        return {(s[:-1], s[1:]): w for s, w in zip(kmers, self.weights.tolist())}

    # -- compaction ---------------------------------------------------------
    def unitigs(self) -> List[str]:
        """Maximal unbranched paths spelled out as sequences, by ascending
        start node then successor.

        Used by tests and by Butterfly's fallback for a component with no
        source node (every node on a cycle).
        """
        nodes, src, dst = self.rows()
        out_deg = np.bincount(src, minlength=nodes.size)
        unbranched = (np.bincount(dst, minlength=nodes.size) == 1) & (out_deg == 1)
        through = unbranched.tolist()
        first = np.concatenate(([0], np.cumsum(out_deg))).tolist()
        dst_of = dst.tolist()
        visited = bytearray(len(dst_of))
        out: List[str] = []
        for start in np.flatnonzero(~unbranched).tolist():
            for edge in range(first[start], first[start + 1]):
                visited[edge] = 1
                cur = dst_of[edge]
                path = [start, cur]
                while through[cur] and not visited[first[cur]]:
                    visited[first[cur]] = 1
                    cur = dst_of[first[cur]]
                    path.append(cur)
                out.append(spell_path(nodes[path], self.k))
        return out


def spell_path(nodes: np.ndarray, k: int) -> str:
    """Spell a path of (k-1)-mer node codes (consecutive nodes overlap by
    k-2): the first node, then the last base of every later one."""
    nodes = np.asarray(nodes, dtype=np.uint64)
    if not nodes.size:
        return ""
    tail = CODE_TO_BASE[(nodes[1:] & np.uint64(3)).astype(np.uint8)]
    return decode_kmers(nodes[:1], k - 1)[0] + tail.tobytes().decode("ascii")


def fasta_to_debruijn(sequences: Iterable[str], k: int) -> DeBruijnGraph:
    """Build a component graph from its contig sequences (FastaToDebruijn):
    one edge per distinct clean k-mer window, weighted by its count."""
    graph = DeBruijnGraph(k=k)
    windows, _seq_ids, _starts = kmer_windows_batch(list(sequences), k)
    graph.codes, counts = np.unique(windows, return_counts=True)
    graph.weights = counts.astype(np.float64)
    return graph
