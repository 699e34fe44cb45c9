"""QuantifyGraph: weight each component's de Bruijn graph with its reads.

The last Chrysalis substep (paper SS:II.B lists it among the Chrysalis
phases): reads assigned by ReadsToTranscripts are threaded through their
component's graph so Butterfly can prune read-unsupported branches.

A read only ever touches its own component's graph, needs encoding only
once and — threading being counting — can be counted wherever it was
packed, so the module is a pack, a per-block count and a pool:

* :func:`pack_routed_reads` — routed reads laid end to end and packed
  once: the clean (k-1)-mer windows the vote reads, and the clean, solid
  k-mer windows the count reads (the first shifted by one base), on both
  strands.  A key's reads — a component's, or one block of them — are
  one slice of the pack;
* :func:`count_block` — one slice voted against the component's graph
  and counted, a ``(codes, counts, n_has_kmer)`` table: what the fused
  back end (:mod:`repro.parallel.mpi_chrysalis_backend`) computes per
  (component, read block) and ships to the component's owner;
* :func:`pool_blocks` — a component's tables landed with one ``add_kmers``
  (:func:`quantify_component`, :func:`quantify_graph`: both, one block);
* :func:`reads_by_component` — the routing table both callers build
  exactly once.  The solid k-mers are Jellyfish's table as it hands it on.

Neither the order of a component's routed reads nor their cut into
blocks matters: every read is oriented against the graph's nodes as they
stand *before* any read is threaded, and threading only adds integer
edge counts (exact in ``float64`` in any order).  The
per-read loop this replaced (same votes, same edges, one window at a
time) is the oracle in ``tests/reference_chrysalis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

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


@dataclass
class ReadPack:
    """Routed reads, packed once (:func:`pack_routed_reads`), numbered in
    pack order: ``key`` (a component, or one block of its reads) owns
    reads ``spans[key][0] .. spans[key][1] - 1``; read ``r``'s clean
    (k-1)-mer windows are ``nodes[node_at[r]:node_at[r + 1]]``, its clean,
    solid k-mer windows ``kmer_fwd[kmer_at[r]:kmer_at[r + 1]]``
    (``kmer_rev``: the same, reverse-complemented), and ``has_kmer[r]``
    says whether it had a clean k-mer window at all, solid or not."""

    spans: Dict[Hashable, Tuple[int, int]]
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
    routed: Mapping[Hashable, Sequence[int]],
    k: int,
    solid=None,
) -> ReadPack:
    """Encode and pack the reads listed in ``routed``, once.

    ``routed`` maps a key -> read indices (a row of
    :func:`reads_by_component`, or a run of one) and its order is the
    pack's; ``solid`` is the index of solid canonical k-mers (None keeps
    every clean k-mer).
    Packed in :func:`~repro.seq.kmers.base_blocks` blocks, so the
    temporaries stay cache-sized whatever a rank owns (taken in one pass
    they grow every concurrent rank thread's malloc arena by megabytes
    that stay resident); no result depends on where the blocks fall.
    """
    spans: Dict[Hashable, Tuple[int, int]] = {}
    n_reads = 0
    for key, indices in routed.items():
        spans[key] = (n_reads, n_reads + len(indices))
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


def count_block(key: Hashable, graph: DeBruijnGraph, pack: ReadPack) -> tuple:
    """One block of a component's routed reads — ``pack``'s slice ``key``
    — counted against its ``graph`` as it stands before any read is
    threaded (the graph is only read): ``(codes, counts, n_has_kmer)``.

    A k-mer *is* an edge (prefix node -> suffix node), so threading is
    counting: every read is oriented by one vote against the graph's
    nodes (:func:`~repro.trinity.chrysalis.orient.reverse_votes`), its
    k-mers are taken on that strand, and each distinct k-mer is listed
    once with its multiplicity.  A window that holds a non-ACGT base or —
    with a solid filter — whose canonical k-mer is not solid is a gap: it
    adds no edge and no node, and the windows either side of it are not
    joined.  ``n_has_kmer`` counts the reads with at least one clean
    k-mer window, with and without the filter.
    """
    first, stop = pack.spans[key]
    if first == stop:  # walk-only inputs: nothing to vote on
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), 0
    local = np.arange(stop - first)

    def reads_of(at: np.ndarray) -> Tuple[slice, np.ndarray]:
        """The block's run of a window array, and each window's read."""
        return slice(at[first], at[stop]), np.repeat(local, np.diff(at[first : stop + 1]))

    run, read_ids = reads_of(pack.node_at)
    reverse = reverse_votes(pack.nodes[run], read_ids, stop - first, graph.nodes(), graph.k)
    run, read_ids = reads_of(pack.kmer_at)
    codes, counts = np.unique(
        np.where(reverse[read_ids], pack.kmer_rev[run], pack.kmer_fwd[run]),
        return_counts=True,
    )
    return codes, counts, int(np.count_nonzero(pack.has_kmer[first:stop]))


def pool_blocks(component: int, graph: DeBruijnGraph, tables: Sequence[tuple]) -> ComponentQuant:
    """Thread a component's reads through its graph, in place: its blocks'
    tables (one at least) landed with the one ``add_kmers`` that sums."""
    codes, counts, n_reads = zip(*tables)
    counts = np.concatenate(counts)
    graph.add_kmers(np.concatenate(codes), counts)
    return ComponentQuant(component, sum(n_reads), graph, float(counts.sum()))


def quantify_component(component: int, graph: DeBruijnGraph, pack: ReadPack) -> ComponentQuant:
    """Thread one component's routed reads — slice ``component`` of
    ``pack``, as one block — through its graph, in place."""
    return pool_blocks(component, graph, [count_block(component, graph, pack)])


def quantify_graph(
    graphs: Mapping[int, DeBruijnGraph],
    reads: Sequence[SeqRecord],
    assignments: Iterable[ReadAssignment],
    kmer_counts=None,
) -> Dict[int, ComponentQuant]:
    """Thread each assigned read through its component's graph.

    ``reads`` must be indexable by ``ReadAssignment.read_index``.  Reads
    assigned to components without a graph (or unassigned, component=-1)
    are skipped.  Edge weights added by reads come on top of the contig
    weights FastaToDebruijn installed.

    If ``kmer_counts`` (a :class:`~repro.trinity.jellyfish.JellyfishCounts`,
    Jellyfish's solid table) is given, only read k-mers it holds are
    threaded, so sequencing errors do not grow junk branches that
    Butterfly would then have to prune.
    """
    solid = kmer_counts.index if kmer_counts is not None else None
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
