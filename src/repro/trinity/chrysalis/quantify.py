"""QuantifyGraph: weight each component's de Bruijn graph with its reads.

The last Chrysalis substep (paper SS:II.B lists it among the Chrysalis
phases): reads assigned by ReadsToTranscripts are threaded through their
component's graph so Butterfly can prune read-unsupported branches.

The work factors cleanly per component — a read only ever touches its own
component's graph — so the module exposes three layers:

* :func:`quantify_component` — thread one component's routed reads
  through its graph as array batches (the kernel the distributed fused
  back end, :mod:`repro.parallel.mpi_chrysalis_backend`, runs
  rank-locally, and the serial wrapper below runs per component);
* :func:`reads_by_component` / :func:`solid_index` — the shared routing
  table and solid-k-mer filter both callers build exactly once;
* :func:`quantify_graph` — the serial all-components wrapper over the
  same kernel.

Within a component the order of the routed reads does not matter: every
read is oriented against the graph's nodes as they stand *before* any
read is threaded, and threading only adds integer edge counts.  The
per-read loop this replaced (same votes, same edges, one window at a
time) is the oracle in ``tests/reference_chrysalis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.seq.kmer_index import decode_kmers
from repro.seq.kmers import kmer_windows_batch, revcomp_codes
from repro.seq.records import SeqRecord
from repro.trinity.chrysalis.debruijn import DeBruijnGraph
from repro.trinity.chrysalis.orient import node_codes, reverse_votes
from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment


@dataclass
class ComponentQuant:
    """Read-support statistics for one component."""

    component: int
    n_reads: int
    graph: DeBruijnGraph
    read_edge_weight: float  # total edge weight contributed by reads

    @property
    def mean_support(self) -> float:
        n_edges = self.graph.n_edges
        return self.read_edge_weight / n_edges if n_edges else 0.0


def reads_by_component(
    assignments: Iterable[ReadAssignment],
) -> Dict[int, List[int]]:
    """Route RTT assignments into per-component read-index lists.

    Unassigned reads (component ``-1``) are dropped; within a component
    the serial assignment order is preserved, which is what makes the
    per-component kernel equivalent to the old single assignment loop.
    """
    routed: Dict[int, List[int]] = {}
    for a in assignments:
        if a.component < 0:
            continue
        routed.setdefault(a.component, []).append(a.read_index)
    return routed


def solid_index(kmer_counts, min_kmer_count: int):
    """Sorted-array index of *solid* canonical k-mer codes.

    One vectorised membership structure shared by every component's
    threading pass (``kmer_counts`` is a
    :class:`~repro.trinity.jellyfish.JellyfishCounts`).
    """
    return kmer_counts.index.filtered(min_kmer_count)


#: Reads per array pass.  One pass holds ~10 temporaries of 8 bytes per
#: read base; taken in one pass, a large component's would grow every
#: concurrent rank thread's malloc arena by megabytes that stay resident
#: (measured: +3 MB peak RSS on the 4-rank benchmark workload, none with
#: blocks).  A constant, not a knob: no result depends on it.
_BLOCK_READS = 128


def quantify_component(
    component: int,
    graph: DeBruijnGraph,
    reads: Sequence[SeqRecord],
    read_indices: Sequence[int],
    solid=None,
) -> ComponentQuant:
    """Thread one component's routed reads through its graph, in array passes.

    ``read_indices`` is this component's row of
    :func:`reads_by_component`; ``solid`` is the pre-filtered
    :func:`solid_index` (or None to thread every k-mer).  Mutates
    ``graph`` in place.

    A k-mer *is* an edge (prefix node -> suffix node), so threading is
    counting: every read is oriented by one vote against the graph's
    nodes as they stand on entry
    (:func:`~repro.trinity.chrysalis.orient.reverse_votes`), its k-mers
    are taken on that strand, and each distinct k-mer is added once with
    its multiplicity as weight.  A window that holds a non-ACGT base or
    — with ``solid`` — whose canonical k-mer is not solid is a gap: it
    adds no edge and no node, and the windows either side of it are not
    joined.  ``n_reads`` counts the reads with at least one clean k-mer
    window, with and without ``solid``.
    """
    if not len(read_indices):  # walk-only inputs: nothing to encode or vote on
        return ComponentQuant(component, 0, graph, 0.0)
    k = graph.k
    nodes = node_codes(graph.edges, k)  # before any read is threaded
    n_reads = 0
    edge_blocks = [np.empty(0, dtype=np.uint64)]
    count_blocks = [np.empty(0, dtype=np.int64)]
    for at in range(0, len(read_indices), _BLOCK_READS):
        seqs = [reads[i].seq for i in read_indices[at : at + _BLOCK_READS]]
        reverse = reverse_votes(seqs, nodes, k)
        fwd, read_ids, _starts = kmer_windows_batch(seqs, k)
        rev = revcomp_codes(fwd, k)
        n_reads += int(np.count_nonzero(np.bincount(read_ids, minlength=len(seqs))))
        if solid is not None:
            keep = solid.contains(np.minimum(fwd, rev))
            fwd, rev, read_ids = fwd[keep], rev[keep], read_ids[keep]
        edges, counts = np.unique(
            np.where(reverse[read_ids], rev, fwd), return_counts=True
        )
        edge_blocks.append(edges)
        count_blocks.append(counts)
    # Sum the blocks' counts per distinct k-mer first: one dict touch per
    # distinct edge of the component, not per block.
    edges, block_edge = np.unique(np.concatenate(edge_blocks), return_inverse=True)
    weights = np.bincount(
        block_edge, weights=np.concatenate(count_blocks), minlength=edges.size
    )
    graph.add_kmers(decode_kmers(edges, k), weights.tolist())
    return ComponentQuant(
        component=component,
        n_reads=n_reads,
        graph=graph,
        read_edge_weight=float(weights.sum()),
    )


def quantify_graph(
    graphs: Mapping[int, DeBruijnGraph],
    reads: Sequence[SeqRecord],
    assignments: Iterable[ReadAssignment],
    kmer_counts=None,
    min_kmer_count: int = 2,
) -> Dict[int, ComponentQuant]:
    """Thread each assigned read through its component's graph.

    ``reads`` must be indexable by ``ReadAssignment.read_index``.  Reads
    assigned to components without a graph (or unassigned, component=-1)
    are skipped.  Edge weights added by reads come on top of the contig
    weights FastaToDebruijn installed.

    If ``kmer_counts`` (a :class:`~repro.trinity.jellyfish.JellyfishCounts`)
    is given, only *solid* read k-mers — abundance >= ``min_kmer_count``
    — are threaded, so sequencing errors do not grow junk branches that
    Butterfly would then have to prune.
    """
    solid = None
    if kmer_counts is not None:
        solid = solid_index(kmer_counts, min_kmer_count)
    routed = reads_by_component(assignments)
    return {
        cid: quantify_component(cid, graph, reads, routed.get(cid, ()), solid=solid)
        for cid, graph in graphs.items()
    }
