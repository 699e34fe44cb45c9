"""GraphFromFasta: weld harvesting, pair discovery, contig clustering.

The module is organised around the paper's two compute-intensive loops so
that the hybrid MPI+OpenMP version (:mod:`repro.parallel.mpi_graph_from_fasta`)
can reuse the exact same per-contig kernels:

* **Loop 1** (:func:`harvest_welds_for_contig`): for one contig, find the
  weld-k-mers it shares with other contigs and harvest "welding"
  subsequences of size 2k — the seed k-mer plus k/2-base left and right
  flanks (paper SS:III.B).
* **Loop 2** (:func:`find_weld_pairs_for_contig`): for one contig, check
  every harvested weld whose seed occurs in this contig; the two contigs
  are welded if a *junction weldmer* — one contig's flank, the shared
  seed, the other contig's flank — occurs verbatim in the reads ("welding
  pairs of contigs together if read support exists").

Weld k-mer size: Inchworm consumes each assembly k-mer exactly once, so
two contigs never share a full assembly k-mer — they overlap by k-1 bases
at de Bruijn branch points.  Welding therefore runs at ``k_weld = k - 1``
(Trinity: Inchworm k=25, welding/graph k=24), which is also the node size
of the component de Bruijn graphs, so welded contigs thread through
shared nodes downstream.

Read support ("weldmers"): because no single assembly k-mer can span from
one contig's flank across the whole seed into the other's flank, k-mer
abundances cannot distinguish a genuine junction from two contigs that
merely share a repeat.  GraphFromFasta therefore scans the *reads* for
2k-base weldmers around every shared seed (the set-up before the loops);
a junction counts as supported only if its exact weldmer occurs in at
least ``min_weld_read_support`` reads.

A weldmer is two k-mer codes.  The 2k window around the seed at base ``t``
is the k-mer at ``t - k/2`` followed by the k-mer at ``t + k/2``, so the
window pack every batched kernel runs over a block of reads already holds
it as a pair ``(hi, lo)``: string order is numeric order on the pair, the
reverse complement is ``(rc(lo), rc(hi))``, and the window is clean and
inside one read iff both halves are.  :func:`scan_weldmers` counts pairs
(pack, one ``searchsorted`` of the centres against
:func:`shared_seed_array`, one compare to canonicalise, sort + segmented
sum); block and rank tables add up because counting commutes, and a
weldmer becomes a string once, in :func:`weldmer_index`.

These set-up structures are Figure 8's "non-parallel regions", at the
paper's scale the memory- and time-heavy part of the stage; here they are
linear array passes, ~25 ns per read base and ~10 ns per contig base
(DESIGN.md SS:5.19).  The per-read loop and dict of sets they replaced are
the oracle ``tests/reference_gff.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import encode_bases, reverse_complement
from repro.seq.kmer_index import decode_kmers, sorted_rows
from repro.seq.kmers import (
    MAX_K,
    base_blocks,
    kmer_windows_batch,
    pack_windows,
    revcomp_codes,
)
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.components import Component, build_components


@dataclass(frozen=True)
class GraphFromFastaConfig:
    """Parameters of the welding stage.

    ``k`` is the *weld* k-mer size and must be even (the window carries
    k/2 flanks); with assembly k-mers of ``k + 1`` this is Trinity's
    24/25 pairing.
    """

    k: int = 24  # weld seed size; must be even (k/2 flanks)
    min_weld_read_support: int = 2
    min_contigs_sharing: int = 2  # seed must occur in >= this many contigs

    def __post_init__(self) -> None:
        if self.k % 2 != 0:
            raise PipelineError(f"weld k must be even (k/2 flanks), got {self.k}")
        if not 4 <= self.k < MAX_K:
            raise PipelineError(
                f"weld k must be in [4, {MAX_K - 1}] (a weldmer is two packed k-mers), got {self.k}"
            )
        for name in ("min_weld_read_support", "min_contigs_sharing"):
            if getattr(self, name) < 1:
                raise PipelineError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def window(self) -> int:
        """Weldmer size: seed k-mer plus two k/2 flanks = 2k."""
        return 2 * self.k


@dataclass(frozen=True)
class WeldCandidate:
    """A welding subsequence harvested in loop 1.

    Flanks are in the owner contig's frame; flanks that would run past
    the contig's ends come out shorter than k/2 and loop 2 only forms
    junctions for the sides whose flanks are complete.
    """

    left_flank: str
    seed: str
    right_flank: str
    owner: int  # contig index it was harvested from
    seed_code: int  # canonical packed code of the seed k-mer

    def __post_init__(self) -> None:
        if not self.seed:
            raise PipelineError("weld seed must be non-empty")

    @property
    def window(self) -> str:
        return self.left_flank + self.seed + self.right_flank


# --------------------------------------------------------------------------
# Shared setup (the serial region before the loops)
# --------------------------------------------------------------------------


def shared_seed_array(contigs: Sequence[Contig], cfg: GraphFromFastaConfig) -> np.ndarray:
    """Sorted canonical weld-k-mer codes held by at least
    ``min_contigs_sharing`` *distinct* contigs.

    One pass: every contig window, canonical, its (code, contig) rows
    sorted as one packed key — inside a code's run each contig boundary is
    one more distinct holder (a repeat inside one contig is one holder).
    """
    codes, contig_ids, _starts = kmer_windows_batch([c.seq for c in contigs], cfg.k)
    canon = np.minimum(codes, revcomp_codes(codes, cfg.k))
    contig_ids, canon = sorted_rows((contig_ids, canon))
    new_code = np.ones(canon.size, dtype=bool)
    new_code[1:] = canon[1:] != canon[:-1]
    new_contig = new_code.copy()
    new_contig[1:] |= contig_ids[1:] != contig_ids[:-1]
    first = np.flatnonzero(new_code)
    n_contigs = np.add.reduceat(new_contig.astype(np.int64), first)
    return canon[first[n_contigs >= cfg.min_contigs_sharing]]


def canonical_weldmer(window: str) -> str:
    """Strand-canonical form of a weldmer string."""
    rc = reverse_complement(window)
    return window if window <= rc else rc


#: Read support as arrays: the distinct canonical weldmers as ``(hi, lo)``,
#: the packed codes of their first and last k bases, ascending (which is
#: string order), and how many read windows spelled each.
WeldmerTable = Tuple[np.ndarray, np.ndarray, np.ndarray]

_NO_WELDMERS: WeldmerTable = (np.empty(0, np.uint64), np.empty(0, np.uint64), np.empty(0, np.int64))


def scan_weldmers(
    reads: Iterable[SeqRecord], shared_seeds: np.ndarray, cfg: GraphFromFastaConfig
) -> WeldmerTable:
    """Count the reads' 2k weldmers centred on a shared seed: per block of
    reads joined by ``N``, the weldmer at base ``w`` is ``(vals[w],
    vals[w + k])`` of one window pack, its seed ``vals[w + k/2]``.

    Pinned rule: windows are indexed by *position in the read*; a window
    holding a non-ACGT base is not counted (it can equal no junction
    built from contigs) and shifts nothing after it; lower-case bases
    count as their upper-case weldmer.
    """
    k = cfg.k
    if shared_seeds.size == 0:
        return _NO_WELDMERS
    # A k-mer's canonical form is shared iff the k-mer is a shared seed or
    # the reverse complement of one: no per-base canonicalisation.
    either_strand = np.union1d(shared_seeds, revcomp_codes(shared_seeds, k))
    tables: List[WeldmerTable] = []
    for block in base_blocks(rec.seq for rec in reads):
        codes = encode_bases("N".join(block))
        if codes.size < 2 * k:
            continue
        vals, window_ok = pack_windows(codes, k)
        # Both halves clean <=> a clean 2k window inside one read (the
        # separator spoils every window across a read boundary).
        starts = np.flatnonzero(window_ok[:-k] & window_ok[k:])
        starts = starts[_in_sorted(vals[starts + k // 2], either_strand)]
        hi, lo = vals[starts], vals[starts + k]
        rc_hi, rc_lo = revcomp_codes(lo, k), revcomp_codes(hi, k)
        swap = (rc_hi < hi) | ((rc_hi == hi) & (rc_lo < lo))
        hits = np.where(swap, rc_hi, hi), np.where(swap, rc_lo, lo), np.ones(starts.size, np.int64)
        tables.append(sum_weldmer_tables([hits]))
    return sum_weldmer_tables(tables)


def sum_weldmer_tables(tables: Sequence[WeldmerTable]) -> WeldmerTable:
    """Keyed sum of weldmer tables (blocks of one scan, or ranks' scans):
    counting commutes, so any split of the reads sums to the same table."""
    hi, lo, counts = (np.concatenate(column) for column in zip(_NO_WELDMERS, *tables))
    order = np.lexsort((lo, hi))
    hi, lo, counts = hi[order], lo[order], counts[order]
    new = np.ones(hi.size, dtype=bool)
    new[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    first = np.flatnonzero(new)
    return hi[first], lo[first], np.add.reduceat(counts, first)


def weldmer_index(table: WeldmerTable, k: int) -> Dict[str, int]:
    """Canonical weldmer string -> read count: what loop 2 probes.  The
    only place a weldmer becomes a string, once per distinct weldmer."""
    hi, lo, counts = table
    return {
        head + tail: n
        for head, tail, n in zip(decode_kmers(hi, k), decode_kmers(lo, k), counts.tolist())
    }


def build_weldmer_index(
    reads: Iterable[SeqRecord], shared_seeds: np.ndarray, cfg: GraphFromFastaConfig
) -> Dict[str, int]:
    """:func:`scan_weldmers` as the mapping loop 2 consults."""
    return weldmer_index(scan_weldmers(reads, shared_seeds, cfg), cfg.k)


def _in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Vectorised membership of ``values`` in a sorted uint64 array."""
    if sorted_arr.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx[idx == sorted_arr.size] = 0
    return sorted_arr[idx] == values


def _seed_windows(seq: str, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical codes of a contig's clean k-windows and the base each
    starts at in ``seq`` (not its rank among the clean ones: that shifts
    every seed and flank cut after an ``N``)."""
    bases = encode_bases(seq)
    if bases.size < k:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    fwd, window_ok = pack_windows(bases, k)
    starts = np.flatnonzero(window_ok)
    fwd = fwd[starts]
    return np.minimum(fwd, revcomp_codes(fwd, k)), starts


# --------------------------------------------------------------------------
# Loop 1 kernel
# --------------------------------------------------------------------------


def harvest_welds_for_contig(
    contig_idx: int,
    contig: Contig,
    cfg: GraphFromFastaConfig,
    shared_seeds: np.ndarray,
) -> List[WeldCandidate]:
    """Loop-1 body: harvest welding candidates from one contig.

    A candidate is any seed k-mer shared with at least one *other*
    contig, packaged with this contig's flanks.  The first occurrence of
    each shared seed (in position order) wins.

    Membership is one vectorised ``searchsorted`` over ``shared_seeds``,
    the :func:`shared_seed_array` of all the contigs.
    """
    k = cfg.k
    half = k // 2
    seq = contig.seq
    canon, starts = _seed_windows(seq, k)
    hits = np.nonzero(_in_sorted(canon, shared_seeds))[0]
    if hits.size == 0:
        return []
    # First occurrence per seed code, emitted in ascending position order
    # (np.unique returns first-occurrence indices for sorted unique codes).
    _codes, first = np.unique(canon[hits], return_index=True)
    out: List[WeldCandidate] = []
    for w in hits[np.sort(first)].tolist():
        pos = int(starts[w])
        out.append(
            WeldCandidate(
                left_flank=seq[max(0, pos - half) : pos],
                seed=seq[pos : pos + k],
                right_flank=seq[pos + k : pos + k + half],
                owner=contig_idx,
                seed_code=int(canon[w]),
            )
        )
    return out


# --------------------------------------------------------------------------
# Between-loop pooling (serial region between the loops)
# --------------------------------------------------------------------------


def build_weld_index(welds: Sequence[WeldCandidate]) -> Dict[int, List[int]]:
    """Canonical seed code -> indices into the pooled weld list."""
    index: Dict[int, List[int]] = {}
    for i, weld in enumerate(welds):
        index.setdefault(weld.seed_code, []).append(i)
    return index


def weld_index_keys(weld_index: Dict[int, List[int]]) -> np.ndarray:
    """Sorted uint64 array of a weld index's seed codes (loop 2's
    vectorised membership filter, the analogue of
    :func:`shared_seed_array` for loop 1)."""
    arr = np.fromiter(weld_index.keys(), dtype=np.uint64, count=len(weld_index))
    arr.sort()
    return arr


# --------------------------------------------------------------------------
# Loop 2 kernel
# --------------------------------------------------------------------------


def find_weld_pairs_for_contig(
    contig_idx: int,
    contig: Contig,
    welds: Sequence[WeldCandidate],
    weld_index: Dict[int, List[int]],
    weldmers: Dict[str, int],
    cfg: GraphFromFastaConfig,
    weld_keys: Optional[np.ndarray] = None,
) -> List[Tuple[int, int]]:
    """Loop-2 body: read-supported weld pairs involving this contig.

    For every weld whose seed occurs in this contig, build the two
    possible junction weldmers (owner's left flank + seed + this contig's
    right flank, and vice versa, orientation-corrected) and weld the pair
    if either occurs in the reads often enough.

    Positions carrying a weld seed are found by one vectorised mask over
    ``weld_keys`` (:func:`weld_index_keys` of ``weld_index``).
    """
    k = cfg.k
    half = k // 2
    seq = contig.seq
    canon, starts = _seed_windows(seq, k)
    if weld_keys is None:
        weld_keys = weld_index_keys(weld_index)
    at = np.nonzero(_in_sorted(canon, weld_keys))[0]
    pairs: Set[Tuple[int, int]] = set()
    for pos, code in zip(starts[at].tolist(), canon[at].tolist()):
        hits = weld_index[code]
        my_left = seq[max(0, pos - half) : pos]
        my_seed = seq[pos : pos + k]
        my_right = seq[pos + k : pos + k + half]
        for widx in hits:
            weld = welds[widx]
            if weld.owner == contig_idx:
                continue
            pair = (min(weld.owner, contig_idx), max(weld.owner, contig_idx))
            if pair in pairs:
                continue
            if _junction_supported(weld, my_left, my_seed, my_right, weldmers, cfg):
                pairs.add(pair)
    return sorted(pairs)


def _junction_supported(
    weld: WeldCandidate,
    my_left: str,
    my_seed: str,
    my_right: str,
    weldmers: Dict[str, int],
    cfg: GraphFromFastaConfig,
) -> bool:
    """Check the two chimeric junction weldmers against the read index.

    The weld's flanks are in the owner's frame; if this contig carries
    the seed on the opposite strand, its flanks are reverse-complemented
    into the owner's frame first.
    """
    half = cfg.k // 2
    if my_seed == weld.seed:
        left, right = my_left, my_right
    else:
        left = reverse_complement(my_right)
        right = reverse_complement(my_left)
    support = cfg.min_weld_read_support
    # Junction A: owner's left flank + seed + this contig's right flank.
    if len(weld.left_flank) == half and len(right) == half:
        window = canonical_weldmer(weld.left_flank + weld.seed + right)
        if weldmers.get(window, 0) >= support:
            return True
    # Junction B: this contig's left flank + seed + owner's right flank.
    if len(left) == half and len(weld.right_flank) == half:
        window = canonical_weldmer(left + weld.seed + weld.right_flank)
        if weldmers.get(window, 0) >= support:
            return True
    return False


def pair_array(pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Contig index pairs as one ``(m, 2)`` ``int64`` array, the form
    GraphFromFasta pools them in."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size and pairs.shape[-1] != 2:
        raise ValueError(f"expected (i, j) pairs, got shape {pairs.shape}")
    return pairs.reshape(-1, 2)


def unique_pairs(
    parts: Sequence[np.ndarray], extra_pairs: Sequence[Tuple[int, int]] = ()
) -> List[Tuple[int, int]]:
    """The distinct ``(i, j)`` pairs, ``i <= j``, of the weld pairs'
    :func:`pair_array` parts and the scaffold ``extra_pairs``, ascending:
    one ``np.unique`` over their rows."""
    extra = np.sort(pair_array(extra_pairs), axis=1)
    return [tuple(pair) for pair in np.unique(np.concatenate([*parts, extra]), axis=0).tolist()]


# --------------------------------------------------------------------------
# Serial driver (the original OpenMP-only GraphFromFasta)
# --------------------------------------------------------------------------


@dataclass
class GraphFromFastaResult:
    """Everything GraphFromFasta produces, serial or on every MPI rank
    (there with the welds in pooling order)."""

    welds: List[WeldCandidate]
    pairs: List[Tuple[int, int]]
    components: List[Component]


def graph_from_fasta(
    contigs: Sequence[Contig],
    reads: Sequence[SeqRecord],
    cfg: Optional[GraphFromFastaConfig] = None,
    extra_pairs: Sequence[Tuple[int, int]] = (),
) -> GraphFromFastaResult:
    """Reference serial GraphFromFasta.

    ``reads`` provide the weldmer evidence; ``extra_pairs`` carries the
    Bowtie scaffolding pairs that are "later combined with welding pairs
    ... for full construction of Inchworm bundles" (paper SS:III.A).
    """
    cfg = cfg or GraphFromFastaConfig()
    shared = shared_seed_array(contigs, cfg)  # serial region
    weldmers = build_weldmer_index(reads, shared, cfg)  # serial region
    welds: List[WeldCandidate] = []
    for idx, contig in enumerate(contigs):  # loop 1
        welds.extend(harvest_welds_for_contig(idx, contig, cfg, shared))
    weld_index = build_weld_index(welds)  # serial region
    weld_keys = weld_index_keys(weld_index)
    found = [
        pair
        for idx, contig in enumerate(contigs)  # loop 2
        for pair in find_weld_pairs_for_contig(
            idx, contig, welds, weld_index, weldmers, cfg, weld_keys
        )
    ]
    pairs = unique_pairs([pair_array(found)], extra_pairs)
    components = build_components(len(contigs), pairs)  # serial region (output)
    return GraphFromFastaResult(welds=welds, pairs=pairs, components=components)
