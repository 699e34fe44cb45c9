"""Breadth-first components: the oracle for ``repro.trinity.kmer_components``.

One BFS from every position not yet reached, over the overlap edges read
as undirected; every member of a component is labelled with its minimum
position.  The vectorised Shiloach-Vishkin labelling must return exactly
these labels on any edge list.
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
