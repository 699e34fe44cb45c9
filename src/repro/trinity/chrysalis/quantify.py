"""QuantifyGraph: weight each component's de Bruijn graph with its reads.

The last Chrysalis substep (paper SS:II.B lists it among the Chrysalis
phases): reads assigned by ReadsToTranscripts are threaded through their
component's graph so Butterfly can prune read-unsupported branches.

A read only ever touches its own component's graph, and needs encoding
only once, so the module is a pack and a per-component kernel:

* :func:`pack_routed_reads` — the reads routed to a set of components
  laid end to end and packed once: the clean (k-1)-mer windows the vote
  reads, and the clean, solid k-mer windows the count reads (the first
  shifted by one base), on both strands.  A read routes to one
  component, so each component's windows are one slice of the pack;
* :func:`quantify_component` — vote, count and merge one component's
  slice into its graph: what the fused back end
  (:mod:`repro.parallel.mpi_chrysalis_backend`) runs per component over
  its rank's own pack, and :func:`quantify_graph`, the serial wrapper,
  over one pack of everything;
* :func:`reads_by_component` / :func:`solid_index` — the routing table
  and solid-k-mer filter both callers build exactly once.

Within a component the order of the routed reads does not matter: every
read is oriented against the graph's nodes as they stand *before* any
read is threaded, and threading only adds integer edge counts.  The
per-read loop this replaced (same votes, same edges, one window at a
time) is the oracle in ``tests/reference_chrysalis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import encode_bases
from repro.seq.kmers import base_blocks, pack_windows, revcomp_codes
from repro.seq.records import SeqRecord
from repro.trinity.chrysalis.debruijn import DeBruijnGraph
from repro.trinity.chrysalis.orient import reverse_votes
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


@dataclass
class ReadPack:
    """Routed reads, packed once (:func:`pack_routed_reads`), numbered in
    pack order: component ``cid`` owns reads ``spans[cid][0] ..
    spans[cid][1] - 1``; read ``r``'s clean (k-1)-mer windows are
    ``nodes[node_at[r]:node_at[r + 1]]``, its clean, solid k-mer windows
    ``kmer_fwd[kmer_at[r]:kmer_at[r + 1]]`` (``kmer_rev``: the same,
    reverse-complemented), and ``has_kmer[r]`` says whether it had a
    clean k-mer window at all, solid or not."""

    spans: Dict[int, Tuple[int, int]]
    nodes: np.ndarray
    node_at: np.ndarray
    kmer_fwd: np.ndarray
    kmer_rev: np.ndarray
    kmer_at: np.ndarray
    has_kmer: np.ndarray
    #: Bases per :func:`~repro.seq.kmers.base_blocks` block the pack was cut
    #: in: the shares a thread team divides its cost by.
    block_bases: List[int]

    @property
    def nbytes(self) -> int:
        arrays = (self.nodes, self.node_at, self.kmer_fwd, self.kmer_rev,
                  self.kmer_at, self.has_kmer)
        return int(sum(a.nbytes for a in arrays))


def _pack_block(seqs: Sequence[str], k: int, solid) -> Tuple[np.ndarray, ...]:
    """One block of reads: ``(nodes, nodes per read, kmer_fwd, kmer_rev,
    kmers per read, has_kmer)``."""
    bases = encode_bases("N".join(seqs))
    if bases.size < k - 1:
        none, zero = np.empty(0, dtype=np.uint64), np.zeros(len(seqs), dtype=np.int64)
        return none, zero, none, none, zero, zero > 0
    node, node_ok = pack_windows(bases, k - 1)
    # The k-mer at w is the (k-1)-mer at w followed by base w + k - 1: clean
    # iff both are (a separator ``N`` fails every window that would span
    # two reads; the last (k-1)-window has no base to follow it).
    follow = bases[k - 1 :]
    kmer_ok = node_ok[:-1] & (follow != 255)
    at = np.flatnonzero(kmer_ok)
    kmer = (node[at] << np.uint64(2)) | follow[at].astype(np.uint64)
    kmer_rev = revcomp_codes(kmer, k)
    # Windows are charged to the read holding their first base.
    lens = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=len(seqs))
    start = np.concatenate(([0], np.cumsum(lens[:-1] + 1)))

    def per_read(ok: np.ndarray) -> np.ndarray:
        before = np.concatenate(([0], np.cumsum(ok)))
        return before[np.minimum(start + lens, ok.size)] - before[np.minimum(start, ok.size)]

    has_kmer = per_read(kmer_ok) > 0
    if solid is not None:
        keep = solid.contains(np.minimum(kmer, kmer_rev))
        kmer, kmer_rev = kmer[keep], kmer_rev[keep]
        kmer_ok[at[~keep]] = False
    return node[node_ok], per_read(node_ok), kmer, kmer_rev, per_read(kmer_ok), has_kmer


def pack_routed_reads(
    reads: Sequence[SeqRecord],
    routed: Mapping[int, Sequence[int]],
    k: int,
    solid=None,
) -> ReadPack:
    """Encode and pack the reads routed to ``routed``'s components, once.

    ``routed`` maps component id -> read indices (rows of
    :func:`reads_by_component`) and its order is the pack's; ``solid`` is
    the pre-filtered :func:`solid_index` (None keeps every clean k-mer).
    Packed in :func:`~repro.seq.kmers.base_blocks` blocks, so the
    temporaries stay cache-sized whatever a rank owns (taken in one pass
    they grow every concurrent rank thread's malloc arena by megabytes
    that stay resident); no result depends on where the blocks fall.
    """
    spans: Dict[int, Tuple[int, int]] = {}
    n_reads = 0
    for cid, indices in routed.items():
        spans[cid] = (n_reads, n_reads + len(indices))
        n_reads += len(indices)
    blocks = list(base_blocks(reads[i].seq for indices in routed.values() for i in indices))
    # (the empty block first: typed empties to concatenate when no read is routed)
    parts = [_pack_block(block, k, solid) for block in [[], *blocks]]
    nodes, node_n, kmer_fwd, kmer_rev, kmer_n, has_kmer = map(np.concatenate, zip(*parts))
    return ReadPack(
        spans=spans,
        nodes=nodes, node_at=np.concatenate(([0], np.cumsum(node_n))),
        kmer_fwd=kmer_fwd, kmer_rev=kmer_rev,
        kmer_at=np.concatenate(([0], np.cumsum(kmer_n))),
        has_kmer=has_kmer, block_bases=[sum(map(len, block)) for block in blocks],
    )


def quantify_component(
    component: int, graph: DeBruijnGraph, pack: ReadPack
) -> ComponentQuant:
    """Thread one component's routed reads — its slice of ``pack`` —
    through its graph, in place.

    A k-mer *is* an edge (prefix node -> suffix node), so threading is
    counting: every read is oriented by one vote against the graph's
    nodes as they stand on entry
    (:func:`~repro.trinity.chrysalis.orient.reverse_votes`), its k-mers
    are taken on that strand, and each distinct k-mer is merged in once
    with its multiplicity as weight.  A window that holds a non-ACGT base
    or — with a solid filter — whose canonical k-mer is not solid is a
    gap: it adds no edge and no node, and the windows either side of it
    are not joined.  ``n_reads`` counts the reads with at least one clean
    k-mer window, with and without the filter.
    """
    first, stop = pack.spans[component]
    if first == stop:  # walk-only inputs: nothing to vote on
        return ComponentQuant(component, 0, graph, 0.0)
    local = np.arange(stop - first)

    def reads_of(at: np.ndarray) -> Tuple[slice, np.ndarray]:
        """The component's run of a window array, and each window's read."""
        return slice(at[first], at[stop]), np.repeat(local, np.diff(at[first : stop + 1]))

    run, read_ids = reads_of(pack.node_at)
    reverse = reverse_votes(pack.nodes[run], read_ids, stop - first, graph.nodes(), graph.k)
    run, read_ids = reads_of(pack.kmer_at)
    edges, counts = np.unique(
        np.where(reverse[read_ids], pack.kmer_rev[run], pack.kmer_fwd[run]),
        return_counts=True,
    )
    graph.add_kmers(edges, counts)
    return ComponentQuant(
        component=component,
        n_reads=int(np.count_nonzero(pack.has_kmer[first:stop])),
        graph=graph,
        read_edge_weight=float(counts.sum()),
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
    ks = {graph.k for graph in graphs.values()}
    if len(ks) > 1:
        raise PipelineError(f"component graphs disagree on k: {sorted(ks)}")
    if not graphs:
        return {}
    pack = pack_routed_reads(
        reads, {cid: routed.get(cid, ()) for cid in graphs}, ks.pop(), solid
    )
    return {cid: quantify_component(cid, graph, pack) for cid, graph in graphs.items()}
