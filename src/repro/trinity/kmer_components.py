"""Connected components of the filtered k-mer overlap graph.

Inchworm's greedy walk only ever moves along (k-1)-overlap extension
edges that land on k-mers present in the filtered counter — the exact
candidate set :func:`repro.trinity.inchworm.probe_extensions` resolves.
A walk therefore never leaves the connected component of its seed, so
contig assembly factors over components: deal the components to MPI
ranks, assemble each sub-counter independently, and the union of the
per-component outputs is exactly the serial output (the fidelity
argument behind :mod:`repro.parallel.mpi_inchworm`, following the
distributed string-graph construction of Guidi et al.).

In canonical mode the index stores ``min(code, revcomp(code))`` while
the walk moves over *directed* codes.  Reverse complement conjugates
the two directions — ``revcomp(rightext_b(revcomp(c)))`` is a left
extension of ``c`` — so the four right plus four left canonicalised
neighbours of each stored canonical code cover every transition either
strand of the walk can take.  Eight candidate lookups per stored k-mer
close the reachability relation.

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
from repro.seq.kmers import revcomp_codes
from repro.trinity.inchworm import extension_candidates

__all__ = [
    "overlap_edges",
    "kmer_components",
    "component_members",
    "component_costs",
]


def overlap_edges(
    filtered: KmerCounter, canonical: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge list of the (k-1)-overlap graph over ``filtered`` positions.

    Returns parallel ``(u, v)`` position arrays: one edge for every
    single-base extension candidate of a stored code (four right, four
    left, canonicalised when ``canonical``) that is itself present in
    ``filtered``.  These are by construction the same edges the greedy
    walk's batched probe resolves.  Self-loops (palindromic neighbours
    resolving to their own source) are dropped; duplicate edges are
    harmless to the label propagation and not deduplicated.
    """
    n = len(filtered)
    if n == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    k = filtered.k
    sources = np.repeat(np.arange(n, dtype=np.intp), 4)
    u_parts: List[np.ndarray] = []
    v_parts: List[np.ndarray] = []
    for right in (True, False):
        cands = extension_candidates(filtered.codes, k, right).reshape(-1)
        if canonical:
            cands = np.minimum(cands, revcomp_codes(cands, k))
        pos, found = filtered.find(cands)
        u = sources[found]
        v = pos[found].astype(np.intp, copy=False)
        keep = u != v
        u_parts.append(u[keep])
        v_parts.append(v[keep])
    return np.concatenate(u_parts), np.concatenate(v_parts)


def kmer_components(filtered: KmerCounter, canonical: bool = True) -> np.ndarray:
    """Component label for every position of ``filtered``.

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
    n = len(filtered)
    parent = np.arange(n, dtype=np.intp)
    if n == 0:
        return parent
    u, v = overlap_edges(filtered, canonical)
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

    Extension work is proportional to the k-mers a walk consumes, and
    abundance bounds how often the batched kernel revisits a region, so
    the count mass is the natural LPT cost (the role the contig-length
    plus routed-read estimate
    :func:`repro.parallel.mpi_chrysalis_backend.estimated_component_cost`
    plays for the back end).
    """
    return np.array(
        [float(filtered.values[m].sum()) for m in members], dtype=float
    )
