"""Paper-scale memory model: per-stage RAM derived from data sizes.

Figure 2's RAM axis is a measurement we cannot repeat; instead of
hard-coding readings, this model derives each stage's resident set from
the input statistics the paper gives (129.8 M reads, 15 GB FASTA, >100 GB
Jellyfish dump) and the data structures our implementation actually
builds.  The serial-timeline experiment uses these numbers, and the test
suite asserts the paper's qualitative claims: Jellyfish/Inchworm are the
memory-hungry stages ("Inchworm's memory footprint can be extremely
high", SS:II.A), the Inchworm baseline needed the 256 GB node, and the
MPI version fits the 128 GB nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simdata.datasets import PaperScaleWorkload, SUGARBEET_PAPER

#: Bytes per entry of a C++ open-addressing k-mer hash (key + count +
#: load-factor overhead) — Jellyfish's own figure is ~10-20 B/kmer; the
#: Trinity Inchworm hash (std::unordered_map of duals) is far heavier.
JELLYFISH_BYTES_PER_KMER = 24
INCHWORM_BYTES_PER_KMER = 60

#: Distinct-kmer yield per read base at 25-mers with ~1 % error on a
#: transcriptome with wide expression range (errors inflate distinct
#: k-mers far beyond the transcriptome size).
DISTINCT_KMERS_PER_BASE = 0.25


@dataclass(frozen=True)
class StageMemory:
    """Modelled resident set of each pipeline stage, in GB."""

    jellyfish_gb: float
    inchworm_gb: float
    bowtie_gb: float
    gff_gb: float
    rtt_gb: float
    butterfly_gb: float


def model_stage_memory(
    workload: PaperScaleWorkload = SUGARBEET_PAPER,
    max_mem_reads: int = 250_000,
    nprocs: int = 1,
) -> StageMemory:
    """Resident sets for a run over ``workload``.

    ``nprocs`` > 1 models the hybrid version's *per-node* footprint:
    GraphFromFasta still holds all contigs + the pooled weld set on every
    rank (the paper lists "per-node memory requirements of the MPI
    version" as an open problem — i.e. it does NOT shrink much), while
    ReadsToTranscripts's streaming buffer is per-rank.
    """
    total_bases = workload.n_reads * workload.read_len
    distinct_kmers = total_bases * DISTINCT_KMERS_PER_BASE
    contig_bases = float(workload.n_contigs) * 650.0  # mean sampled length

    jellyfish = distinct_kmers * JELLYFISH_BYTES_PER_KMER
    inchworm = distinct_kmers * INCHWORM_BYTES_PER_KMER
    # Bowtie: FM-index ~ 2-3 bytes/base of the (per-node) target piece +
    # constant read-buffer.
    bowtie = 3.0 * contig_bases / nprocs + 2e9
    # GraphFromFasta: contigs + kmer->contig map + pooled weldmers (the
    # pooled set is global on every rank — hence the flat per-node need).
    weldmers = contig_bases / 150.0
    gff = 2.0 * contig_bases + 40.0 * contig_bases * 0.2 + 100.0 * weldmers
    # ReadsToTranscripts: kmer->component map + streaming read buffer.
    rtt = 40.0 * contig_bases * 0.2 + max_mem_reads * (workload.read_len + 100.0)
    # Butterfly: one component graph at a time (small) + JVM overhead.
    butterfly = 25e9

    return StageMemory(
        jellyfish_gb=jellyfish / 1e9,
        inchworm_gb=inchworm / 1e9,
        bowtie_gb=bowtie / 1e9,
        gff_gb=gff / 1e9,
        rtt_gb=rtt / 1e9,
        butterfly_gb=butterfly / 1e9,
    )
