"""String-side helpers for tests of the array ``DeBruijnGraph``.

The graph holds k-mer codes; tests say what they mean in strings.  These
build a graph from weighted sequences and read it back through its one
decoded view, ``DeBruijnGraph.edge_weights()`` — ``{(u, v): w}`` over
node strings.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.seq.kmer_index import decode_kmers
from repro.seq.kmers import kmer_array
from repro.trinity.chrysalis.debruijn import DeBruijnGraph


def thread(graph: DeBruijnGraph, seq: str, weight: float = 1.0) -> int:
    """Add ``weight`` along every clean k-mer window of ``seq``; returns
    how many windows that was."""
    codes = kmer_array(seq, graph.k)
    graph.add_kmers(codes, np.full(codes.size, float(weight)))
    return int(codes.size)


def weighted_graph(k: int, *weighted_seqs) -> DeBruijnGraph:
    """A graph threaded with ``(sequence, weight)`` pairs."""
    graph = DeBruijnGraph(k=k)
    for seq, weight in weighted_seqs:
        thread(graph, seq, weight)
    return graph


def node_strings(graph: DeBruijnGraph) -> List[str]:
    return decode_kmers(graph.nodes(), graph.k - 1)


def source_strings(graph: DeBruijnGraph) -> List[str]:
    return decode_kmers(graph.sources(), graph.k - 1)


def successors(graph: DeBruijnGraph, node: str) -> Dict[str, float]:
    return {v: w for (u, v), w in graph.edge_weights().items() if u == node}


def predecessors(graph: DeBruijnGraph, node: str) -> List[str]:
    return [u for (u, v) in graph.edge_weights() if v == node]


def reweight(graph: DeBruijnGraph, fn: Callable[[str, str, float], float]) -> None:
    """Apply ``fn(u, v, w) -> w'`` to every edge in place."""
    graph.weights = np.array(
        [fn(u, v, w) for (u, v), w in graph.edge_weights().items()], dtype=np.float64
    )
