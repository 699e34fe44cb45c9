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
whole component's reads at once by :func:`reverse_votes`, on the window
codes the rank's read pack already holds.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import kmer_array, revcomp_codes


def directed_kmer_set(seq: str, k: int) -> Set[int]:
    """Directed (non-canonical) k-mer codes of a sequence."""
    return set(kmer_array(seq, k).tolist())


def orient_component(seqs: Sequence[str], k: int) -> List[str]:
    """Reorient a component's contig sequences onto one strand.

    ``k`` is the de Bruijn node size (assembly k - 1).  Deterministic:
    members are processed in the given (component-member) order and ties
    keep the forward strand.
    """
    if len(seqs) < 2:  # nothing to orient against the anchor
        return list(seqs)
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


def reverse_votes(
    windows: np.ndarray, seq_ids: np.ndarray, n_seqs: int, nodes: np.ndarray, k: int
) -> np.ndarray:
    """Which sequences (e.g. reads) thread a graph on the reverse strand.

    ``windows`` are the sequences' clean (k-1)-mer window codes,
    ``seq_ids`` the sequence (0 .. ``n_seqs - 1``) each came from, and
    ``nodes`` the sorted node codes of the graph of this ``k``
    (:meth:`DeBruijnGraph.nodes`).  One flag per sequence: True where its
    reverse complement shares strictly more *distinct* (k-1)-mers with
    ``nodes`` than the sequence itself does — forward wins ties, as in
    :func:`orient_component`.  QuantifyGraph votes a component's routed
    reads against the nodes as they stand before any read is threaded;
    that fixed reference is what makes threading independent of read
    order.

    A window's reverse complement is node ``n`` iff the window is
    ``rc(n)``, so both strands are read off one search against the nodes
    and their reverse complements together.  The windows are searched
    sorted, as sorted needles walk the table front to back, saving more
    than the sort costs (a read block of whitefly-half's largest
    component: 0.8-0.9 ms in read order, 0.4-0.5 ms sorted, x86 host).
    """
    if not (windows.size and nodes.size):
        return np.zeros(n_seqs, dtype=bool)
    table, row = np.unique(
        np.concatenate((nodes, revcomp_codes(nodes, k - 1))), return_inverse=True
    )
    strand = np.zeros((2, table.size), dtype=bool)  # entry is a node / an rc(node)
    strand[0, row[: nodes.size]] = strand[1, row[nodes.size :]] = True
    order = np.argsort(windows)
    pos = np.empty(windows.size, dtype=np.intp)
    pos[order] = np.searchsorted(table, windows[order])
    pos[pos == table.size] = 0
    hit = table[pos] == windows
    # One key per (sequence, table entry): a repeated (k-1)-mer votes once.
    pairs = np.sort(seq_ids[hit] * table.size + pos[hit])
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    seq, entry = np.divmod(pairs[first], table.size)
    forward, reverse = (
        np.bincount(seq[strand[s, entry]], minlength=n_seqs) for s in (0, 1)
    )
    return reverse > forward
