"""Position-by-position GraphFromFasta: the oracle for
``repro.trinity.chrysalis.graph_from_fasta.shared_seed_array``,
``scan_weldmers`` / ``build_weldmer_index`` and the two loop kernels
(``harvest_welds_for_contig``, ``find_weld_pairs_for_contig``).

The dict-of-sets seed table and the per-read weldmer scan the array
kernels replaced, written as the readable specification of the rules the
arrays have to reproduce:

* a seed is *shared* when its canonical form occurs in at least
  ``min_contigs_sharing`` distinct contigs (a repeat inside one contig is
  one contig);
* a read's 2k window at position ``pos`` — indexed by position in the
  read, whatever came before it — counts once for its canonical string
  when all its bases are ACGT and its central k-mer is a shared seed;
* read bases are upper-cased first (every code-based kernel reads
  lower-case bases as their upper-case codes);
* a contig's seed at position ``pos`` is ``seq[pos : pos + k]`` and its
  flanks are cut either side of *that* position — a window holding an
  ``N`` is no seed, and shifts no other (``N_CONTIG_CASES``).

Strings and Python ints only: nothing here goes through the numpy codec
the kernels are built on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    WeldCandidate,
    canonical_weldmer,
)

_ACGT = frozenset("ACGT")
_DIGITS = str.maketrans("ACGT", "0123")


def canonical_seed_code(kmer: str) -> int:
    """Packed code (A=0 .. T=3, first base highest) of the smaller strand."""
    return min(int(kmer.translate(_DIGITS), 4), int(reverse_complement(kmer).translate(_DIGITS), 4))


def build_kmer_to_contigs(contigs: Sequence[Contig], k: int) -> Dict[int, Set[int]]:
    """Canonical weld-k-mer code -> set of contig indices containing it."""
    table: Dict[int, Set[int]] = {}
    for idx, contig in enumerate(contigs):
        seq = contig.seq.upper()
        for pos in range(len(seq) - k + 1):
            kmer = seq[pos : pos + k]
            if _ACGT.issuperset(kmer):
                table.setdefault(canonical_seed_code(kmer), set()).add(idx)
    return table


def shared_seed_codes(contigs: Sequence[Contig], cfg: GraphFromFastaConfig) -> Set[int]:
    """Seeds occurring in >= ``min_contigs_sharing`` contigs."""
    return {
        code
        for code, members in build_kmer_to_contigs(contigs, cfg.k).items()
        if len(members) >= cfg.min_contigs_sharing
    }


def build_weldmer_index(
    reads: Iterable[SeqRecord], shared_seeds: Set[int], cfg: GraphFromFastaConfig
) -> Dict[str, int]:
    """Canonical weldmer string -> number of read windows spelling it."""
    k = cfg.k
    half = k // 2
    index: Dict[str, int] = {}
    for read in reads:
        seq = read.seq.upper()
        for pos in range(half, len(seq) - k - half + 1):
            window = seq[pos - half : pos + k + half]
            if not _ACGT.issuperset(window):
                continue
            if canonical_seed_code(seq[pos : pos + k]) in shared_seeds:
                weldmer = canonical_weldmer(window)
                index[weldmer] = index.get(weldmer, 0) + 1
    return index


def _seeds(contig: Contig, k: int):
    """``(pos, canonical code)`` of every clean k-window, by position."""
    seq = contig.seq
    for pos in range(len(seq) - k + 1):
        kmer = seq[pos : pos + k].upper()
        if _ACGT.issuperset(kmer):
            yield pos, canonical_seed_code(kmer)


def harvest_welds(
    contigs: Sequence[Contig], shared_seeds: Set[int], cfg: GraphFromFastaConfig
) -> List[WeldCandidate]:
    """Loop 1: per contig, the first occurrence of every shared seed with
    the flanks either side of it."""
    k, half = cfg.k, cfg.k // 2
    welds = []
    for idx, contig in enumerate(contigs):
        seq, seen = contig.seq, set()
        for pos, code in _seeds(contig, k):
            if code in shared_seeds and code not in seen:
                seen.add(code)
                welds.append(WeldCandidate(
                    left_flank=seq[max(0, pos - half) : pos], seed=seq[pos : pos + k],
                    right_flank=seq[pos + k : pos + k + half], owner=idx, seed_code=code,
                ))
    return welds


def weld_pairs(
    contigs: Sequence[Contig], welds: Sequence[WeldCandidate],
    weldmers: Dict[str, int], cfg: GraphFromFastaConfig,
) -> List[Tuple[int, int]]:
    """Loop 2: contig pairs with a read-supported junction — another
    contig's weld flank, the seed, this contig's opposite flank (brought
    into the owner's frame when the seed sits on the other strand)."""
    k, half = cfg.k, cfg.k // 2
    pairs = set()
    for idx, contig in enumerate(contigs):
        seq = contig.seq
        for pos, code in _seeds(contig, k):
            mine = seq[max(0, pos - half) : pos], seq[pos + k : pos + k + half]
            for weld in welds:
                if weld.seed_code != code or weld.owner == idx:
                    continue
                left, right = mine
                if seq[pos : pos + k] != weld.seed:
                    left, right = reverse_complement(right), reverse_complement(left)
                for junction in (weld.left_flank + weld.seed + right,
                                 left + weld.seed + weld.right_flank):
                    if (len(junction) == 2 * half + k
                            and weldmers.get(canonical_weldmer(junction), 0)
                            >= cfg.min_weld_read_support):
                        pairs.add((min(idx, weld.owner), max(idx, weld.owner)))
    return sorted(pairs)


_SEED = "ACGTCA"
_A = "TTGGAT" + _SEED + "CCATTG"
_B = "GACTAG" + _SEED + "TGAACC"
_JUNCTION = "GAT" + _SEED + "TGA"  # a's left flank + seed + b's right flank

#: name -> (contigs, reads, expected pairs) at k = 6: an ``N`` ahead of,
#: behind, or inside a contig's seed and flanks.  Inchworm never emits
#: one; a caller's own contig FASTA can.
N_CONTIG_CASES = {
    "n_prefix_shifts_nothing": (["ACGTN" + _A, _B], [_JUNCTION] * 2, [(0, 1)]),
    "n_prefix_on_the_other_contig": ([_A, "NNACN" + _B], [_JUNCTION] * 2, [(0, 1)]),
    "n_suffix": ([_A + "NAC", _B], [_JUNCTION] * 2, [(0, 1)]),
    "n_in_the_seed_is_no_seed": (["TTGGATACNTCACCATTG", _B], [_JUNCTION] * 2, []),
    "n_in_the_used_flank": (["TTGGNT" + _SEED + "CCATTG", _B], [_JUNCTION] * 2, []),
}
