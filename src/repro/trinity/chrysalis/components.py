"""Clustering of Inchworm contigs into components.

A *component* (the paper also says "Inchworm bundle") is a set of contigs
connected by welds (GraphFromFasta) and/or scaffolding read pairs
(Bowtie).  The labelling is the one connected-components kernel of the
package, :func:`repro.trinity.kmer_components.kmer_components`, which
Inchworm runs over its k-mer overlap edges.  Component identity is
canonicalised — the component id is the smallest member contig index —
so clustering is invariant to the order in which pairs are discovered,
which is what makes the serial and MPI code paths comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.trinity.kmer_components import kmer_components


@dataclass(frozen=True)
class Component:
    """One cluster of contig indices (an Inchworm bundle)."""

    id: int  # == min(members)
    members: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("component must have at least one member")
        if self.id != min(self.members):
            raise ValueError("component id must equal its smallest member")

    def __len__(self) -> int:
        return len(self.members)


def build_components(n_contigs: int, pairs: Iterable[Tuple[int, int]]) -> List[Component]:
    """Cluster ``n_contigs`` contigs given welding/scaffold pairs.

    Singleton contigs become singleton components (Chrysalis keeps them —
    a gene with one isoform and no paralogs is a component of one contig).
    Output is sorted by component id, hence deterministic.
    """
    if n_contigs < 0:
        raise ValueError(f"n_contigs must be >= 0, got {n_contigs}")
    edges = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    bad = (edges < 0) | (edges >= n_contigs)
    if bad.any():
        i, j = edges[bad.any(axis=1)][0].tolist()
        raise ValueError(f"pair ({i}, {j}) out of range for {n_contigs} contigs")
    groups: Dict[int, List[int]] = {}
    for contig, label in enumerate(kmer_components(n_contigs, edges.T).tolist()):
        groups.setdefault(label, []).append(contig)
    # A label is its component's minimum member, so labels arrive ascending.
    return [Component(id=label, members=tuple(members)) for label, members in groups.items()]


def component_of_map(components: Sequence[Component], n_contigs: int) -> List[int]:
    """contig index -> component id lookup table."""
    table = [-1] * n_contigs
    for comp in components:
        for m in comp.members:
            table[m] = comp.id
    if any(t < 0 for t in table):
        raise ValueError("components do not cover all contigs")
    return table
