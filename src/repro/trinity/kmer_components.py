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
reads its edges off the probe the walk's rows are built from.

The component labelling itself is a vectorised union-find of the
classic Shiloach-Vishkin shape: root-hooking over the edge list
(``np.minimum.at`` on the tree roots) interleaved with pointer jumping
(``parent = parent[parent]``) until no live edge remains — a
logarithmic number of rounds, no Python-level per-node loop.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.seq.kmer_index import KmerCounter

__all__ = [
    "overlap_edges",
    "kmer_components",
    "component_members",
    "component_costs",
]


def overlap_edges(landing: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Edge list of the (k-1)-overlap graph, read off the probe.

    ``landing`` is :func:`repro.trinity.inchworm.neighbours` of the
    table.  Returns parallel ``(u, v)`` position arrays: one edge for
    every single-base extension of a stored code (four right, four left)
    that is itself stored — by construction the candidates the greedy
    walk's rows hold.  Self-loops (palindromic neighbours resolving to
    their own source) are dropped; duplicate edges are harmless to the
    label propagation and not deduplicated.
    """
    u, col = np.nonzero(landing >= 0)
    v = landing[u, col].astype(np.intp)
    keep = u != v
    return u[keep], v[keep]


def kmer_components(landing: np.ndarray) -> np.ndarray:
    """Component label for every position of the table ``landing`` probes.

    The label of a component is the minimum position among its members,
    so labels are stable under any edge ordering and directly comparable
    across runs.  Positions with no surviving overlap edges are
    singleton components labelled by themselves.

    Shiloach-Vishkin rounds: with ``parent`` fully compressed (every
    entry a root), each live edge hooks the larger of its two roots onto
    the smaller (``np.minimum.at`` on the *root*, not the endpoint — the
    whole tree moves at once, which is what makes the round count
    logarithmic rather than diameter-bound), then pointer jumping
    (``parent = parent[parent]``) recompresses.  Roots only ever
    decrease and the component's minimum position can never be hooked
    away from itself, so the fixpoint labels every member with that
    minimum.
    """
    parent = np.arange(len(landing), dtype=np.intp)
    u, v = overlap_edges(landing)
    if u.size == 0:
        return parent
    while True:
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            return parent
        lo = np.minimum(ru[live], rv[live])
        hi = np.maximum(ru[live], rv[live])
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def component_members(labels: np.ndarray) -> List[np.ndarray]:
    """Group positions by component label.

    Returns one ascending position array per component, components
    ordered by ascending label — a deterministic dense numbering
    (component id = list index) shared by every rank that computes it
    from the same ``labels``.
    """
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")  # stable => members ascending
    sorted_labels = labels[order]
    starts = np.flatnonzero(
        np.r_[np.ones(min(1, sorted_labels.size), dtype=bool),
              sorted_labels[1:] != sorted_labels[:-1]]
    )
    bounds = np.append(starts, sorted_labels.size)
    return [order[bounds[i] : bounds[i + 1]] for i in range(starts.size)]


def component_costs(
    filtered: KmerCounter, members: List[np.ndarray]
) -> np.ndarray:
    """Per-component deal weight: the sum of member k-mer counts.

    Row building and extension work are proportional to the k-mers a
    component holds, and abundance weights the ones long walks are made
    of, so the count mass is the natural LPT cost (the role the contig-length
    plus routed-read estimate
    :func:`repro.parallel.mpi_chrysalis_backend.estimated_component_cost`
    plays for the back end).
    """
    return np.array(
        [float(filtered.values[m].sum()) for m in members], dtype=float
    )
