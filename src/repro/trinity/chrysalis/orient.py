"""Strand orientation of contigs — and reads — within a component.

Inchworm contigs come out on arbitrary strands (reads are strand-
symmetric), but a component's de Bruijn graph must be single-stranded so
Butterfly's paths spell consistent transcripts.  Chrysalis reorients each
component's members onto one strand before FastaToDebruijn; we do the
same with a greedy pass: the first member anchors the frame, each later
member keeps the orientation sharing more directed (k-1)-mers with the
already-oriented set.  Weld seeds are (k-1)-mers, so welded neighbours
always share some and the greedy pass is well-determined.

Reads are strand-symmetric too: QuantifyGraph threads each one on the
strand that shares more nodes with its component's graph, decided for a
whole component's reads at once by :func:`reverse_votes`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import encode_bases, reverse_complement
from repro.seq.kmers import kmer_array, kmer_windows_batch, pack_windows_at, revcomp_codes


def directed_kmer_set(seq: str, k: int) -> Set[int]:
    """Directed (non-canonical) k-mer codes of a sequence."""
    return set(kmer_array(seq, k).tolist())


def orient_component(seqs: Sequence[str], k: int) -> List[str]:
    """Reorient a component's contig sequences onto one strand.

    ``k`` is the de Bruijn node size (assembly k - 1).  Deterministic:
    members are processed in the given (component-member) order and ties
    keep the forward strand.
    """
    if not seqs:
        return []
    oriented = [seqs[0]]
    anchor = directed_kmer_set(seqs[0], k)
    for seq in seqs[1:]:
        fwd = directed_kmer_set(seq, k)
        rc_seq = reverse_complement(seq)
        rev = directed_kmer_set(rc_seq, k)
        if len(rev & anchor) > len(fwd & anchor):
            oriented.append(rc_seq)
            anchor |= rev
        else:
            oriented.append(seq)
            anchor |= fwd
    return oriented


def node_codes(nodes: Iterable[str], k: int) -> np.ndarray:
    """Sorted codes of a graph's (k-1)-mer node strings (``k`` is the
    graph's k).  A node holding a non-ACGT base has no code and is left
    out: no clean read window equals it.

    Packs exactly one window per node (:func:`pack_windows_at`): joining
    the nodes and packing *every* window of the text costs k times the
    memory for the same codes.
    """
    nodes = list(nodes)
    bases = encode_bases("".join(nodes))
    if bases.size != len(nodes) * (k - 1):
        raise PipelineError(f"graph nodes must all be {k - 1}-mers")
    clean = (bases.reshape(len(nodes), k - 1) != 255).all(axis=1)
    return np.sort(pack_windows_at(bases, np.flatnonzero(clean) * (k - 1), k - 1))


def reverse_votes(seqs: Sequence[str], nodes: np.ndarray, k: int) -> np.ndarray:
    """Which sequences (e.g. reads) thread a graph on the reverse strand.

    ``nodes`` is :func:`node_codes` of the graph, ``k`` its k.  One flag
    per sequence: True where its reverse complement shares strictly more
    *distinct* (k-1)-mers with ``nodes`` than the sequence itself does —
    forward wins ties, as in :func:`orient_component`.  QuantifyGraph
    votes a component's routed reads against the nodes as they stand
    before any read is threaded; that fixed reference is what makes
    threading independent of read order.
    """
    fwd, seq_ids, _starts = kmer_windows_batch(seqs, k - 1)
    if not (fwd.size and nodes.size):
        return np.zeros(len(seqs), dtype=bool)
    votes = []
    for codes in (fwd, revcomp_codes(fwd, k - 1)):
        pos = np.searchsorted(nodes, codes)
        pos[pos == nodes.size] = 0
        hit = nodes[pos] == codes
        # One key per (sequence, node): a repeated (k-1)-mer votes once.
        pairs = np.sort(seq_ids[hit] * nodes.size + pos[hit])
        first = np.ones(pairs.size, dtype=bool)
        first[1:] = pairs[1:] != pairs[:-1]
        votes.append(np.bincount(pairs[first] // nodes.size, minlength=len(seqs)))
    return votes[1] > votes[0]
