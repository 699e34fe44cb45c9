"""Connected components of the filtered k-mer overlap graph.

Inchworm's greedy walk only ever moves along (k-1)-overlap extension
edges that land on k-mers present in the filtered counter — the
landings :func:`repro.trinity.inchworm.neighbours` resolves, once, for
every stored k-mer.  A walk therefore never leaves the connected
component of its seed, so contig assembly factors over components: deal
the components to MPI ranks, let each owner build successor rows for
its own members and walk them, and the union of the per-component
outputs is exactly the serial output (the fidelity argument behind
:mod:`repro.parallel.mpi_inchworm`, following the distributed
string-graph construction of Guidi et al.).

In canonical mode the index stores ``min(code, revcomp(code))`` while
the walk moves over *directed* codes.  Reverse complement conjugates
the two directions — ``revcomp(rightext_b(revcomp(c)))`` is a left
extension of ``c`` — so the four right plus four left canonicalised
neighbours of each stored canonical code cover every transition either
strand of the walk can take.  Eight landings per stored k-mer close the
reachability relation, and this module searches for none of them: it
reads its edges off the probe the walk's rows are built from, block by
block (:func:`overlap_edges`).  ``u`` lands on ``v`` iff ``v`` lands
on ``u``, so a block keeps the landings above its rows: each edge once.
Only a stored *directed* code in a canonical table (hand-built tables)
has no mirror, and keeps its edges whichever way they point.

The component labelling itself is a vectorised union-find of the
classic Shiloach-Vishkin shape: root-hooking over the edge list
(``np.minimum.at`` on the tree roots) interleaved with pointer jumping
(``parent = parent[parent]``), each round keeping only the edges that
still join two trees — a logarithmic number of rounds over a shrinking
edge list, no Python-level per-node loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["overlap_edges", "kmer_components", "component_ids"]


def overlap_edges(
    landing: np.ndarray, start: int = 0, one_sided: Optional[np.ndarray] = None
) -> np.ndarray:
    """The overlap edges of the probe's block ``landing`` of positions
    ``start ..`` (:func:`repro.trinity.inchworm.neighbours`), as a
    ``(2, m)`` ``int32`` array of ``u < v`` pairs: every landing above
    its row, and below it too on rows ``one_sided`` flags (no mirror).
    Self-loops are dropped; an edge two columns find is kept twice,
    which the labelling does not mind.  Blocks concatenate on axis 1.
    """
    rows = np.arange(start, start + len(landing), dtype=np.int32)[:, None]
    keep = landing > rows
    if one_sided is not None and one_sided.any():
        keep |= (landing >= 0) & one_sided[:, None]
    hit = np.flatnonzero(keep)
    u, v = rows.ravel()[hit // landing.shape[1]], landing.ravel()[hit]
    return np.stack((np.minimum(u, v), np.maximum(u, v)))


def kmer_components(n: int, edges: np.ndarray) -> np.ndarray:
    """Component label of each of ``n`` positions joined by ``edges``.

    ``edges`` is a ``(2, m)`` integer array of position pairs: Inchworm's
    :func:`overlap_edges` rows pooled over the table's blocks, or
    GraphFromFasta's contig pairs
    (:func:`repro.trinity.chrysalis.components.build_components`).  The label of a component is the minimum position among its
    members, so labels are stable under any edge ordering and directly
    comparable across runs.  Positions with no overlap edges are
    singleton components labelled by themselves.

    Shiloach-Vishkin rounds over a contracting edge list: every edge
    endpoint is a root, and each edge hooks the larger of its two roots
    onto the smaller (``np.minimum.at`` on the *root*, not an original
    endpoint — the whole tree moves at once, which is what makes the
    round count logarithmic rather than diameter-bound); pointer jumping
    (``parent = parent[parent]``) recompresses, and the edges are
    re-pointed at their endpoints' new roots, keeping only those whose
    roots still differ.  Roots only ever decrease and the component's
    minimum position can never be hooked away from itself, so the
    fixpoint labels every member with that minimum.
    """
    parent = np.arange(n, dtype=np.intp)
    u, v = edges.astype(np.intp)  # ``np.minimum.at``'s fast path indexes with intp
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


def component_ids(labels: np.ndarray) -> np.ndarray:
    """Dense component id of every position, from its label.

    Ids ascend with the label (the minimum member position), so every
    rank that computes them from the same ``labels`` shares one
    deterministic numbering; ``np.bincount(ids, weights=...)`` sums any
    per-position quantity per component.
    """
    labels = np.asarray(labels)
    return (np.cumsum(labels == np.arange(labels.size)) - 1)[labels]
