"""Position-by-position GraphFromFasta set-up: the oracle for
``repro.trinity.chrysalis.graph_from_fasta.shared_seed_array`` and
``scan_weldmers`` / ``build_weldmer_index``.

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
  lower-case bases as their upper-case codes).

Strings and Python ints only: nothing here goes through the numpy codec
the kernels are built on.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set

from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig, canonical_weldmer

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
