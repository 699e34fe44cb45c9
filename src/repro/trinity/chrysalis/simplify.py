"""De Bruijn graph simplification: tip pruning and bubble popping.

Sequencing errors grow two artifact shapes in a de Bruijn graph:

* **tips** — short dead-end branches (an error near a read's end breaks
  reconvergence);
* **bubbles** — parallel paths of node-length ~k that reconverge (an
  error mid-read).

Butterfly's path enumeration degrades combinatorially on such graphs, so
Chrysalis-style assemblers clean them before enumeration.  Our pipeline
avoids most artifacts up front by threading only solid k-mers
(:func:`repro.trinity.chrysalis.quantify.quantify_graph`), so
simplification is off by default (``ButterflyConfig.simplify``) and acts
as a second line of defence for noisy configurations
(``min_kmer_count=1`` or external graphs).

Both passes read the graph's integer rows into a small mutable
adjacency, visit nodes in ascending code order, remove whole nodes, and
leave the graph's two arrays compacted.  The string-keyed passes they
replaced are the oracle in ``tests/reference_chrysalis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.trinity.chrysalis.debruijn import DeBruijnGraph


@dataclass(frozen=True)
class SimplifyConfig:
    """Artifact-removal thresholds."""

    max_tip_nodes: int = 0  # 0 -> use 2*(k-1), the error-tip scale
    tip_weight_ratio: float = 0.25  # tip must be this much weaker than sibling
    bubble_weight_ratio: float = 0.25  # weak bubble arm vs strong arm
    max_bubble_nodes: int = 0  # 0 -> use 2*(k-1)

    def resolved_tip_len(self, k: int) -> int:
        return self.max_tip_nodes if self.max_tip_nodes > 0 else 2 * (k - 1)

    def resolved_bubble_len(self, k: int) -> int:
        return self.max_bubble_nodes if self.max_bubble_nodes > 0 else 2 * (k - 1)


@dataclass
class SimplifyStats:
    """What a simplification pass removed."""

    tips_removed: int = 0
    bubbles_popped: int = 0
    nodes_removed: int = 0


class _Adjacency:
    """One pass's mutable view of a graph: per node row its successors
    (row -> edge weight, ascending) and predecessor rows."""

    def __init__(self, graph: DeBruijnGraph) -> None:
        self.graph = graph
        nodes, self.src, self.dst = graph.rows()
        self.succs: List[Dict[int, float]] = [{} for _ in range(nodes.size)]
        self.preds: List[Set[int]] = [set() for _ in range(nodes.size)]
        for u, v, w in zip(self.src.tolist(), self.dst.tolist(), graph.weights.tolist()):
            self.succs[u][v] = w
            self.preds[v].add(u)
        self.removed: Set[int] = set()

    def remove(self, node: int) -> None:
        for succ in self.succs[node]:
            self.preds[succ].discard(node)
        for pred in self.preds[node]:
            self.succs[pred].pop(node, None)
        self.succs[node], self.preds[node] = {}, set()
        self.removed.add(node)

    def compact(self) -> None:
        """Drop every edge that touched a removed node from the graph."""
        if self.removed:
            gone = np.zeros(len(self.succs), dtype=bool)
            gone[list(self.removed)] = True
            keep = ~(gone[self.src] | gone[self.dst])
            self.graph.codes = self.graph.codes[keep]
            self.graph.weights = self.graph.weights[keep]


def _walk_tip(adj: _Adjacency, start: int, max_len: int) -> Optional[List[int]]:
    """Collect a dead-end chain starting at an out-degree-0 node, walking
    backwards while the chain stays unbranched; None if too long."""
    chain = [start]
    cur = start
    while len(chain) <= max_len:
        preds = adj.preds[cur]
        if len(preds) != 1:
            return chain  # reached the branch point (or an orphan)
        (pred,) = preds
        if len(adj.succs[pred]) > 1:
            return chain  # the branch node marks the tip's attachment
        chain.append(pred)
        cur = pred
    return None


def prune_tips(
    graph: DeBruijnGraph, cfg: Optional[SimplifyConfig] = None
) -> SimplifyStats:
    """Remove weakly-supported short dead ends, in place."""
    cfg = cfg or SimplifyConfig()
    stats = SimplifyStats()
    max_len = cfg.resolved_tip_len(graph.k)
    adj = _Adjacency(graph)
    changed = True
    while changed:
        changed = False
        dead_ends = [
            n for n, succs in enumerate(adj.succs) if not succs and n not in adj.removed
        ]
        for node in dead_ends:
            if node in adj.removed:
                continue
            chain = _walk_tip(adj, node, max_len)
            if chain is None or len(chain) > max_len:
                continue
            # The tip hangs off the predecessor of its last chain node.
            if len(adj.preds[chain[-1]]) != 1:
                continue  # isolated chain or a join, not a tip
            (anchor,) = adj.preds[chain[-1]]
            tip_w = adj.succs[anchor].get(chain[-1], 0.0)
            siblings = [w for v, w in adj.succs[anchor].items() if v != chain[-1]]
            if not siblings or tip_w > cfg.tip_weight_ratio * max(siblings):
                continue
            for n in chain:
                adj.remove(n)
                stats.nodes_removed += 1
            stats.tips_removed += 1
            changed = True
    adj.compact()
    return stats


def _follow_arm(
    adj: _Adjacency, first: int, max_len: int
) -> Optional[Tuple[List[int], int, float]]:
    """Follow an unbranched arm from ``first``; return (interior nodes,
    reconvergence node, min edge weight), or None if it branches/ends."""
    arm = [first]
    weight = float("inf")
    cur = first
    for _ in range(max_len + 1):
        if len(adj.succs[cur]) != 1:
            return None
        if len(adj.preds[cur]) > 1 and cur != first:
            return None
        ((nxt, w),) = adj.succs[cur].items()
        weight = min(weight, w)
        if len(adj.preds[nxt]) > 1:
            return arm, nxt, weight
        arm.append(nxt)
        cur = nxt
    return None


def pop_bubbles(
    graph: DeBruijnGraph, cfg: Optional[SimplifyConfig] = None
) -> SimplifyStats:
    """Collapse weak parallel arms that reconverge, in place."""
    cfg = cfg or SimplifyConfig()
    stats = SimplifyStats()
    max_len = cfg.resolved_bubble_len(graph.k)
    adj = _Adjacency(graph)
    for node in range(len(adj.succs)):
        if len(adj.succs[node]) < 2:
            continue
        arms = []
        for succ, w_in in list(adj.succs[node].items()):
            followed = _follow_arm(adj, succ, max_len)
            if followed is not None:
                interior, join, w_min = followed
                arms.append((succ, interior, join, min(w_in, w_min)))
        # Group arms by reconvergence node; pop the weak ones.
        by_join: Dict[int, list] = {}
        for arm in arms:
            by_join.setdefault(arm[2], []).append(arm)
        for group in by_join.values():
            if len(group) < 2:
                continue
            group.sort(key=lambda a: -a[3])
            strongest = group[0][3]
            for _succ, interior, _join, w in group[1:]:
                if w <= cfg.bubble_weight_ratio * strongest:
                    for n in interior:
                        adj.remove(n)
                        stats.nodes_removed += 1
                    stats.bubbles_popped += 1
    adj.compact()
    return stats


def simplify_graph(
    graph: DeBruijnGraph, cfg: Optional[SimplifyConfig] = None
) -> SimplifyStats:
    """Tips first (they expose bubbles), then bubbles."""
    cfg = cfg or SimplifyConfig()
    stats = prune_tips(graph, cfg)
    b = pop_bubbles(graph, cfg)
    stats.bubbles_popped += b.bubbles_popped
    stats.nodes_removed += b.nodes_removed
    return stats
