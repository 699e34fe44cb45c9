"""Synthetic transcriptome generation with alternative splicing.

Genes are built from exons; isoforms are subsets of a gene's exons
(always keeping the first and last so isoforms of one gene share ends,
the situation that makes Chrysalis welding non-trivial).  Transcript
lengths are lognormal — the paper attributes GraphFromFasta's load
imbalance to "a very wide variation in the lengths of reconstructed
transcripts with some lengths being in tens of thousands, while others
only a few hundred characters", so the long tail matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.seq.alphabet import BASES
from repro.seq.records import SeqRecord
from repro.util.rng import spawn_rng


@dataclass(frozen=True)
class Isoform:
    """One splice variant of a gene."""

    name: str
    gene: str
    exon_indices: tuple
    seq: str

    def __len__(self) -> int:
        return len(self.seq)

    def to_record(self) -> SeqRecord:
        return SeqRecord(self.name, self.seq, f"gene={self.gene}")


@dataclass
class Gene:
    """A gene: a list of exon sequences plus derived isoforms."""

    name: str
    exons: List[str]
    isoforms: List[Isoform] = field(default_factory=list)

    @property
    def span(self) -> int:
        return sum(len(e) for e in self.exons)


@dataclass
class Transcriptome:
    """A set of genes with isoforms; the ground truth for validation."""

    genes: List[Gene]

    @property
    def isoforms(self) -> List[Isoform]:
        return [iso for g in self.genes for iso in g.isoforms]

    def records(self) -> List[SeqRecord]:
        return [iso.to_record() for iso in self.isoforms]

    def __len__(self) -> int:
        return len(self.genes)


def _random_seq(rng: np.random.Generator, length: int) -> str:
    codes = rng.integers(0, 4, size=length)
    return "".join(BASES[c] for c in codes)


def generate_transcriptome(
    n_genes: int,
    seed: int = 0,
    mean_exons: float = 4.0,
    exon_len_mean: float = 5.3,  # lognormal mu: ~200 bp median exon
    exon_len_sigma: float = 0.6,
    isoform_prob: float = 0.5,
    max_isoforms: int = 4,
    min_exon_len: int = 40,
    shared_utr_prob: float = 0.0,
    shared_utr_len: int = 64,
) -> Transcriptome:
    """Generate a transcriptome with lognormal exon lengths and splicing.

    Parameters mirror vertebrate-ish statistics scaled for laptop runs.
    Every gene gets a primary isoform using all exons; with probability
    ``isoform_prob`` per extra slot, an alternative isoform drops a random
    subset of internal exons (exon skipping — the dominant splice mode).

    ``shared_utr_prob``: probability that consecutive genes share an
    identical UTR sequence (3' of one, 5' of the next) — the real-genome
    situation the paper blames for "fused" reconstructions ("end-to-end
    fusions in some cases due to overlapping UTRs", SS:IV).  The shared
    block must exceed the assembler's weld window for fusions to be
    *possible*; the default 64 bp > 2x24.
    """
    if n_genes <= 0:
        raise ValueError(f"n_genes must be positive, got {n_genes}")
    if not (0.0 <= shared_utr_prob <= 1.0):
        raise ValueError(f"shared_utr_prob must be in [0,1], got {shared_utr_prob}")
    rng = spawn_rng(seed, "transcriptome")
    genes: List[Gene] = []
    for gi in range(n_genes):
        n_exons = max(1, int(rng.poisson(mean_exons)))
        exons = []
        for _ in range(n_exons):
            length = max(min_exon_len, int(rng.lognormal(exon_len_mean, exon_len_sigma)))
            exons.append(_random_seq(rng, length))
        gene = Gene(name=f"gene{gi}", exons=exons)
        gene.isoforms.append(_make_isoform(gene, tuple(range(n_exons)), 0))
        if n_exons >= 3:
            extra = 0
            while extra < max_isoforms - 1 and rng.random() < isoform_prob:
                kept = _skip_exons(rng, n_exons)
                iso = _make_isoform(gene, kept, extra + 1)
                if all(iso.exon_indices != other.exon_indices for other in gene.isoforms):
                    gene.isoforms.append(iso)
                    extra += 1
                else:
                    break
        genes.append(gene)
    if shared_utr_prob > 0.0:
        for gi in range(len(genes) - 1):
            if rng.random() < shared_utr_prob:
                _share_utr(genes[gi], genes[gi + 1], _random_seq(rng, shared_utr_len))
    return Transcriptome(genes)


def _share_utr(upstream: Gene, downstream: Gene, utr: str) -> None:
    """Give ``upstream`` a 3' UTR exon and ``downstream`` the same 5' UTR.

    All isoforms of both genes carry the shared block (UTRs survive
    splicing), preserving the invariants that isoforms keep their
    terminal exons.
    """
    upstream.exons.append(utr)
    last = len(upstream.exons) - 1
    upstream.isoforms = [
        Isoform(iso.name, iso.gene, iso.exon_indices + (last,), iso.seq + utr)
        for iso in upstream.isoforms
    ]
    downstream.exons.insert(0, utr)
    downstream.isoforms = [
        Isoform(
            iso.name,
            iso.gene,
            (0,) + tuple(i + 1 for i in iso.exon_indices),
            utr + iso.seq,
        )
        for iso in downstream.isoforms
    ]


def _skip_exons(rng: np.random.Generator, n_exons: int) -> tuple:
    """Keep first and last exon; drop >=1 internal exon at random."""
    internal = list(range(1, n_exons - 1))
    n_drop = int(rng.integers(1, len(internal) + 1))
    dropped = set(rng.choice(internal, size=n_drop, replace=False).tolist())
    return tuple(i for i in range(n_exons) if i not in dropped)


def _make_isoform(gene: Gene, exon_indices: tuple, iso_idx: int) -> Isoform:
    seq = "".join(gene.exons[i] for i in exon_indices)
    return Isoform(
        name=f"{gene.name}_iso{iso_idx}",
        gene=gene.name,
        exon_indices=exon_indices,
        seq=seq,
    )
