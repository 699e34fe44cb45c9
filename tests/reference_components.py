"""Breadth-first components: the oracle for ``repro.trinity.kmer_components``.

One BFS from every position not yet reached, over the overlap edges read
as undirected; every member of a component is labelled with its minimum
position.  The vectorised Shiloach-Vishkin labelling must return exactly
these labels on any edge list, and on the ``u < v`` edges the probe's
blocks emit (``repro.trinity.inchworm.probe``) the labels of the BFS
over every landing (:func:`landing_edges`).
"""

from collections import deque

import numpy as np


def bfs_labels(n, u, v):
    """Min-position component label of each of ``n`` nodes, edges ``(u, v)``."""
    adj = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    labels = np.full(n, -1, dtype=np.intp)
    for start in range(n):
        if labels[start] != -1:
            continue
        seen = [start]
        labels[start] = start
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if labels[y] == -1:
                    labels[y] = start
                    seen.append(y)
                    queue.append(y)
        labels[np.array(seen)] = min(seen)
    return labels


def landing_edges(landing):
    """Every landing of the probe as a ``(u, v)`` pair: both directions of
    each edge, self-loops included (the BFS reads them as undirected)."""
    u, col = np.nonzero(landing >= 0)
    return u, landing[u, col].astype(np.intp)


def landing_components(landing):
    """The labelling the pooled ``u < v`` edges replaced: Shiloach-Vishkin
    over every landing of the whole ``(n, 8)`` probe, both directions
    (the timing baseline of ``benchmarks/test_bench_kernels.py``)."""
    parent = np.arange(len(landing), dtype=np.intp)
    u, v = landing_edges(landing)
    keep = u != v
    u, v = u[keep], v[keep]
    while u.size:
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        u, v = parent[u], parent[v]
        live = u != v
        u, v = u[live], v[live]
    return parent
