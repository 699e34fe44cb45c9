"""Scalar QuantifyGraph threading and Butterfly walk: the oracles for
``repro.trinity.chrysalis.quantify`` and ``repro.trinity.butterfly``.

This is the code the batched ``quantify_component`` and the in-place
``_dfs`` replaced, moved here unchanged: the per-read loop with its
string-set orientation vote (``best_orientation``), the per-window
``add_sequence_masked`` / ``add_sequence_filtered`` threading, and the
DFS that copies its path and ``on_path`` set at every node.  Reads are
handled as strings throughout — nothing here touches ``repro.seq.kmers``
except the solid lookup the old loop itself made.

Two things the oracle does that the kernel deliberately does not (the
``N`` rule of DESIGN §5.16): with ``solid=None`` it threads windows
holding a non-ACGT base into the graph and counts reads shorter than
``k`` in ``n_reads``; with a solid index it raises on a read holding an
``N``.  Property tests therefore compare against it on ``N``-free reads
of at least ``k`` bases and against the rule itself otherwise.
"""

from __future__ import annotations

import zlib
from typing import Callable, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import kmer_array, revcomp_codes
from repro.seq.records import SeqRecord
from repro.trinity.butterfly import ButterflyConfig
from repro.trinity.chrysalis.debruijn import DeBruijnGraph
from repro.trinity.chrysalis.quantify import ComponentQuant

# -- QuantifyGraph ------------------------------------------------------------


def best_orientation(seq: str, node_set: Set[str], k: int) -> str:
    """Orient one sequence (e.g. a read) against a graph's node strings.

    Returns the orientation sharing more (k-1)-mer nodes with the graph;
    forward wins ties.
    """
    fwd_nodes = {seq[i : i + k - 1] for i in range(len(seq) - k + 2)}
    rc = reverse_complement(seq)
    rev_nodes = {rc[i : i + k - 1] for i in range(len(rc) - k + 2)}
    if len(rev_nodes & node_set) > len(fwd_nodes & node_set):
        return rc
    return seq


def add_sequence_filtered(
    graph: DeBruijnGraph, seq: str, is_solid: Callable[[str], bool], weight: float = 1.0
) -> int:
    """Thread a sequence, skipping edges whose k-mer fails ``is_solid``.

    Each maximal solid run threads contiguously; runs are not connected
    across skipped edges.  Returns #edges touched.
    """
    k = graph.k
    if len(seq) < k:
        return 0
    touched = 0
    prev = seq[: k - 1]
    for i in range(1, len(seq) - k + 2):
        cur = seq[i : i + k - 1]
        kmer = seq[i - 1 : i - 1 + k]
        if is_solid(kmer):
            graph._add_edge(prev, cur, weight)
            touched += 1
        prev = cur
    return touched


def add_sequence_masked(
    graph: DeBruijnGraph, seq: str, solid_mask: Sequence[bool], weight: float = 1.0
) -> int:
    """Thread a sequence, keeping only edges whose k-mer index is True in
    ``solid_mask`` (one flag per raw ``len(seq)-k+1`` window)."""
    k = graph.k
    n_windows = len(seq) - k + 1
    if n_windows <= 0:
        return 0
    if len(solid_mask) != n_windows:
        raise PipelineError(
            f"mask length {len(solid_mask)} != window count {n_windows}"
        )
    touched = 0
    prev = seq[: k - 1]
    for i in range(1, n_windows + 1):
        cur = seq[i : i + k - 1]
        if solid_mask[i - 1]:
            graph._add_edge(prev, cur, weight)
            touched += 1
        prev = cur
    return touched


def quantify_component(
    component: int,
    graph: DeBruijnGraph,
    reads: Sequence[SeqRecord],
    read_indices: Sequence[int],
    solid=None,
) -> ComponentQuant:
    """Thread one component's routed reads through its graph, one at a time."""
    base_weight = graph.total_weight()
    node_set = set(graph.edges)
    n_reads = 0
    for ri in read_indices:
        read = reads[ri]
        # Reads are strand-symmetric; thread the orientation that shares
        # more nodes with the (single-stranded) component graph.
        oriented = best_orientation(read.seq, node_set, graph.k)
        if solid is None:
            graph.add_sequence(oriented)
        else:
            arr = kmer_array(oriented, graph.k)
            if arr.size == 0:
                continue
            canon = np.minimum(arr, revcomp_codes(arr, graph.k))
            mask = solid.contains(canon).tolist()
            add_sequence_masked(graph, oriented, mask)
        n_reads += 1
    return ComponentQuant(
        component=component,
        n_reads=n_reads,
        graph=graph,
        read_edge_weight=graph.total_weight() - base_weight,
    )


# -- Butterfly ----------------------------------------------------------------


def dfs(
    graph: DeBruijnGraph,
    src: str,
    cfg: ButterflyConfig,
    salt: int,
    paths: List[Tuple[str, ...]],
    seen_paths: Set[Tuple[str, ...]],
) -> None:
    """Iterative DFS from one source, copying path and ``on_path`` per node."""
    stack: List[Tuple[List[str], Set[str]]] = [([src], {src})]
    while stack and len(paths) < cfg.max_paths_per_component:
        path, on_path = stack.pop()
        node = path[-1]
        succs = graph.successors(node)
        # Prune weak branches relative to the strongest sibling.
        viable: List[Tuple[str, float]] = []
        if succs:
            w_max = max(succs.values())
            for nxt, w in succs.items():
                if nxt in on_path:  # no cycles within one transcript
                    continue
                if w >= cfg.min_edge_fraction * w_max:
                    viable.append((nxt, w))
        if not viable or len(path) >= cfg.max_path_nodes:
            key = tuple(path)
            if key not in seen_paths:
                seen_paths.add(key)
                paths.append(key)
            continue
        viable.sort(
            key=lambda nw: (-nw[1], (zlib.crc32(nw[0].encode()) ^ salt) & 0xFFFFFFFF, nw[0])
        )
        # Depth-first: push in reverse so the best branch is explored first.
        for nxt, _w in reversed(viable):
            stack.append((path + [nxt], on_path | {nxt}))
