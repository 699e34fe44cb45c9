"""FastaToDebruijn: per-component de Bruijn graph construction.

Nodes are (k-1)-mers; an edge u->v exists for every k-mer whose prefix is
u and suffix is v.  Edge weights count occurrences across the component's
contigs (and later, reads via QuantifyGraph).  Butterfly walks these
graphs to reconstruct transcripts.

Graphs are small (one gene family each) and Butterfly walks them node by
node, so a dict-of-dicts is the right representation.  The *counting*
that fills one is array work done by the callers: QuantifyGraph reduces a
component's read k-mers to (distinct k-mer, multiplicity) pairs in numpy
and lands them through :meth:`DeBruijnGraph.add_kmers`, one dict touch
per distinct edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.errors import PipelineError


@dataclass
class DeBruijnGraph:
    """A weighted de Bruijn graph over (k-1)-mer string nodes."""

    k: int
    edges: Dict[str, Dict[str, float]] = field(default_factory=dict)
    _in_edges: Dict[str, Set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise PipelineError(f"de Bruijn k must be >= 2, got {self.k}")

    # -- construction ------------------------------------------------------
    def add_sequence(self, seq: str, weight: float = 1.0) -> int:
        """Thread a sequence through the graph; returns #edges touched."""
        k = self.k
        if len(seq) < k:
            return 0
        touched = 0
        prev = seq[: k - 1]
        for i in range(1, len(seq) - k + 2):
            cur = seq[i : i + k - 1]
            self._add_edge(prev, cur, weight)
            prev = cur
            touched += 1
        return touched

    def add_kmers(self, kmers: Iterable[str], weights: Iterable[float]) -> None:
        """Add one weighted edge per k-mer string.

        A k-mer *is* an edge — from its (k-1)-prefix node to its
        (k-1)-suffix node — so a batch of distinct k-mers with their
        multiplicities is a whole threading pass (QuantifyGraph counts a
        component's read k-mers in arrays and lands them here, one dict
        touch per distinct edge).
        """
        for kmer, weight in zip(kmers, weights):
            self._add_edge(kmer[:-1], kmer[1:], weight)

    def _add_edge(self, u: str, v: str, weight: float) -> None:
        out = self.edges.setdefault(u, {})
        out[v] = out.get(v, 0.0) + weight
        self.edges.setdefault(v, {})
        self._in_edges.setdefault(v, set()).add(u)
        self._in_edges.setdefault(u, set())

    # -- queries -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.edges)

    @property
    def n_edges(self) -> int:
        return sum(len(d) for d in self.edges.values())

    def successors(self, node: str) -> Dict[str, float]:
        return self.edges.get(node, {})

    def predecessors(self, node: str) -> Set[str]:
        return self._in_edges.get(node, set())

    def sources(self) -> List[str]:
        """Nodes with no predecessors (path starts), sorted for determinism."""
        return sorted(n for n in self.edges if not self._in_edges.get(n))

    def out_degree(self, node: str) -> int:
        return len(self.edges.get(node, {}))

    def in_degree(self, node: str) -> int:
        return len(self._in_edges.get(node, ()))

    def total_weight(self) -> float:
        return sum(w for d in self.edges.values() for w in d.values())

    def reweight(self, fn) -> None:
        """Apply ``fn(u, v, w) -> w'`` to every edge in place."""
        for u, outs in self.edges.items():
            for v in list(outs):
                outs[v] = fn(u, v, outs[v])

    # -- compaction ---------------------------------------------------------
    def unitigs(self) -> List[str]:
        """Maximal unbranched paths spelled out as sequences.

        Used by tests and by Butterfly's linear fast path: a component
        whose graph is one unitig is a single-isoform gene.
        """
        visited_edges: Set[Tuple[str, str]] = set()
        out: List[str] = []
        starts = [
            n
            for n in sorted(self.edges)
            if self.in_degree(n) != 1 or self.out_degree(n) != 1
        ]
        for start in starts:
            for nxt in sorted(self.successors(start)):
                if (start, nxt) in visited_edges:
                    continue
                path = [start, nxt]
                visited_edges.add((start, nxt))
                cur = nxt
                while self.in_degree(cur) == 1 and self.out_degree(cur) == 1:
                    follow = next(iter(self.successors(cur)))
                    if (cur, follow) in visited_edges:
                        break
                    visited_edges.add((cur, follow))
                    path.append(follow)
                    cur = follow
                out.append(spell_path(path))
        return out


def spell_path(nodes: Sequence[str]) -> str:
    """Spell the sequence of a node path (overlap k-2 between nodes)."""
    if not nodes:
        return ""
    seq = [nodes[0]]
    for node in nodes[1:]:
        seq.append(node[-1])
    return "".join(seq)


def fasta_to_debruijn(sequences: Iterable[str], k: int) -> DeBruijnGraph:
    """Build a component graph from its contig sequences (FastaToDebruijn)."""
    g = DeBruijnGraph(k=k)
    for seq in sequences:
        g.add_sequence(seq)
    return g
