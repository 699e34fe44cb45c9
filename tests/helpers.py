"""One-call conveniences only tests use.

Each wraps library code the pipeline runs in some other shape: the
serial single-index Bowtie run the parallel stage must reproduce (as
records), one ReadsToTranscripts chunk as records, a
k-mer counter over plain strings or a hand-made ``{code: count}`` table,
flat expression and a strict ``ACGT`` check for simulated data.  They live here, not in ``src/``,
because nothing but the tests calls them.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.seq.kmer_index import KmerCounter, KmerCounterBuilder, KmerMap
from repro.seq.kmers import canonical_kmers, kmer_array
from repro.seq.records import Contig, SeqRecord
from repro.seq.sam import SamRecord
from repro.simdata.expression import ExpressionModel
from repro.trinity.bowtie import (
    BestHits,
    BowtieConfig,
    BowtieIndex,
    ReadSeeds,
    align_seeds,
    hit_records,
    read_hits,
)
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadAssignment,
    ReadsToTranscriptsConfig,
    assignment_records,
    assignment_table,
)


def sam_records(
    reads: Sequence[SeqRecord], hits: BestHits, contig_names: Sequence[str]
) -> List[SamRecord]:
    """One SAM record per read from per-orientation bests (:func:`read_hits`
    rendered by :func:`hit_records`)."""
    return hit_records(reads, read_hits(hits, len(reads)), contig_names)


def bowtie_align(
    reads: Sequence[SeqRecord],
    contigs: Sequence[Contig],
    cfg: Optional[BowtieConfig] = None,
) -> List[SamRecord]:
    """Align all reads against all contigs (a single-node Bowtie run)."""
    index = BowtieIndex(contigs, cfg)
    hits = align_seeds(ReadSeeds.build(reads, index.cfg), index)
    return sam_records(reads, hits, [c.name for c in index.contigs])


def assign_reads_batched(
    chunk: Sequence[Tuple[int, SeqRecord]],
    kmer_map: KmerMap,
    cfg: ReadsToTranscriptsConfig,
) -> List[ReadAssignment]:
    """The assignments of one ``(global index, read)`` chunk: its
    :func:`assignment_table` as records."""
    table = assignment_table([i for i, _r in chunk], [r.seq for _i, r in chunk], kmer_map, cfg)
    return assignment_records([r.name for _i, r in chunk], table)


def counter_from_reads(seqs: Iterable[str], k: int, canonical: bool = True) -> KmerCounter:
    """One-shot k-mer counter over sequence strings."""
    builder = KmerCounterBuilder(k, canonical)
    for seq in seqs:
        builder.add_codes(canonical_kmers(seq, k) if canonical else kmer_array(seq, k))
    return builder.build()


def counter_from_dict(counts: Mapping[int, int], k: int, canonical: bool) -> KmerCounter:
    """A counter holding a hand-made ``{code: count}`` table, keyed in
    strand mode ``canonical``."""
    codes = np.fromiter(counts.keys(), dtype=np.uint64, count=len(counts))
    vals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    return KmerCounter.from_pairs(codes, vals, k, canonical)


def uniform_expression(n_isoforms: int) -> ExpressionModel:
    """Flat abundances, for tests where coverage must be even."""
    return ExpressionModel(np.ones(n_isoforms))


def is_valid_dna(seq: str) -> bool:
    """True if ``seq`` consists only of upper-case ``ACGT``."""
    return set(seq) <= set("ACGT")
