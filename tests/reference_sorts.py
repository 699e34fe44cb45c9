"""The merge-sort table builds that one packed-key sort replaced: oracles
for ``graph_from_fasta.shared_seed_array``, ``reads_to_transcripts.
build_kmer_map`` (``KmerMap.from_pairs``) and ``kmer_index.sorted_rows``.

Kept as they were — a stable argsort, a lexsort — so that
``benchmarks/test_bench_kernels.py::test_bench_packed_sorts`` times the
replaced code itself, and so that each kernel has a readable statement
of the order it must reproduce.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.seq.kmer_index import KmerMap
from repro.seq.kmers import kmer_arrays_batch, kmer_windows_batch, revcomp_codes
from repro.seq.records import Contig
from repro.trinity.chrysalis.components import Component, component_of_map
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig


def sorted_rows(keys: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """The columns ``keys`` with their rows in ``np.lexsort(keys)`` order."""
    order = np.lexsort(keys)
    return tuple(np.asarray(key)[order] for key in keys)


def shared_seed_array(contigs: Sequence[Contig], cfg: GraphFromFastaConfig) -> np.ndarray:
    """Codes held by >= ``min_contigs_sharing`` distinct contigs, from a
    stable argsort of the codes: the windows arrive contig by contig, so
    inside a code's run each contig boundary is one more holder."""
    codes, contig_ids, _starts = kmer_windows_batch([c.seq for c in contigs], cfg.k)
    canon = np.minimum(codes, revcomp_codes(codes, cfg.k))
    order = np.argsort(canon, kind="stable")
    canon, contig_ids = canon[order], contig_ids[order]
    new_code = np.ones(canon.size, dtype=bool)
    new_code[1:] = canon[1:] != canon[:-1]
    new_contig = new_code.copy()
    new_contig[1:] |= contig_ids[1:] != contig_ids[:-1]
    first = np.flatnonzero(new_code)
    n_contigs = np.add.reduceat(new_contig.astype(np.int64), first)
    return canon[first[n_contigs >= cfg.min_contigs_sharing]]


def kmer_map_from_pairs(codes: np.ndarray, components: np.ndarray, k: int) -> KmerMap:
    """``KmerMap.from_pairs`` by lexsort: (component within code) puts the
    smallest component first in each code's run."""
    codes = np.asarray(codes, dtype=np.uint64)
    components = np.asarray(components, dtype=np.int64)
    if codes.size == 0:
        return KmerMap.empty(k)
    order = np.lexsort((components, codes))
    cs = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], cs[1:] != cs[:-1])))
    return KmerMap(k, cs[starts], components[order][starts])


def build_kmer_map(contigs: Sequence[Contig], components: Sequence[Component], k: int) -> KmerMap:
    """``build_kmer_map`` over :func:`kmer_map_from_pairs`."""
    table = component_of_map(components, len(contigs))
    flat, contig_ids, _pos = kmer_arrays_batch([c.seq for c in contigs], k)
    if flat.size == 0:
        return KmerMap.empty(k)
    canon = np.minimum(flat, revcomp_codes(flat, k))
    return kmer_map_from_pairs(canon, np.asarray(table, dtype=np.int64)[contig_ids], k)
