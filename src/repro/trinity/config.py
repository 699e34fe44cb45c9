"""What a Trinity run takes and what it gives: :class:`TrinityConfig` and
:class:`TrinityResult`, shared by the serial pipeline
(:mod:`repro.trinity.pipeline`) and the hybrid driver
(:mod:`repro.parallel.driver`), which both walk the driver's stage table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.errors import PipelineError
from repro.seq.records import Contig, SeqRecord, Transcript
from repro.trinity.bowtie import BowtieConfig
from repro.trinity.butterfly import ButterflyConfig
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    GraphFromFastaResult,
)
from repro.trinity.chrysalis.quantify import ComponentQuant
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadAssignment,
    ReadsToTranscriptsConfig,
)
from repro.trinity.inchworm import InchwormConfig
from repro.trinity.jellyfish import JellyfishConfig, JellyfishCounts


@dataclass(frozen=True)
class TrinityConfig:
    """End-to-end pipeline parameters.

    ``k`` is the assembly k-mer size (Trinity's 25); welding and the de
    Bruijn node size use ``k - 1`` (Trinity's 24), which is why ``k``
    must be odd.  ``seed`` drives the modelled stochasticity — repeated
    runs with different seeds give slightly different (equivalent-
    quality) transcriptomes, as the paper's SS:IV observes for real
    Trinity.
    """

    k: int = 25
    #: The solid threshold: Jellyfish hands on only k-mers counted at least
    #: this often, and Inchworm and the back end read that table as it is.
    min_kmer_count: int = 2
    seed: int = 0
    max_mem_reads: int = 1000
    use_bowtie_scaffolds: bool = True
    min_weld_read_support: int = 2
    butterfly_max_paths: int = 12
    #: Butterfly's paired-end reconciliation (paper SS:II.A): drop
    #: combinatorial isoforms no mate pair supports when a supported
    #: sibling exists in the same component.
    use_pair_reconciliation: bool = True
    #: Strand-specific library mode (Trinity's ``--SS_lib_type``): k-mers
    #: are counted per strand instead of canonically, so antisense
    #: transcription is kept apart.  Our read simulator is strand-
    #: symmetric, so this is only meaningful for external data.
    strand_specific: bool = False
    #: Simulated OpenMP threads per rank of the *distributed* Inchworm
    #: (:mod:`repro.parallel.mpi_inchworm`), which deals each rank's k-mer-
    #: graph components to a ``comm.map`` team of that many threads.
    #: Timing only: the contigs are the same at every value.  The serial
    #: pipeline's Inchworm body ignores it and runs the one-thread
    #: assembler; a one-node threaded Inchworm is the parallel driver at
    #: ``nprocs=1``.
    inchworm_threads: int = 1

    def __post_init__(self) -> None:
        if self.k % 2 == 0 or self.k < 5:
            raise PipelineError(
                f"assembly k must be odd and >= 5 (weld k = k-1 needs k/2 flanks), got {self.k}"
            )
        if self.inchworm_threads <= 0:
            raise PipelineError(
                f"inchworm_threads must be positive, got {self.inchworm_threads}"
            )

    @property
    def weld_k(self) -> int:
        """Weld / de Bruijn-node k-mer size (k - 1, even)."""
        return self.k - 1

    def jellyfish(self) -> JellyfishConfig:
        return JellyfishConfig(k=self.k, canonical=not self.strand_specific)

    def inchworm(self) -> InchwormConfig:
        return InchwormConfig(seed=self.seed)

    def bowtie(self) -> BowtieConfig:
        return BowtieConfig()

    def gff(self) -> GraphFromFastaConfig:
        return GraphFromFastaConfig(
            k=self.weld_k, min_weld_read_support=self.min_weld_read_support
        )

    def rtt(self) -> ReadsToTranscriptsConfig:
        return ReadsToTranscriptsConfig(k=self.k, max_mem_reads=self.max_mem_reads)

    def butterfly(self) -> ButterflyConfig:
        return ButterflyConfig(max_paths_per_component=self.butterfly_max_paths, seed=self.seed)


@dataclass
class TrinityResult:
    """All artefacts of one pipeline run."""

    transcripts: List[Transcript]
    contigs: List[Contig]
    gff: GraphFromFastaResult
    assignments: List[ReadAssignment]
    quants: Dict[int, ComponentQuant]
    counts: JellyfishCounts  # the solid table (the dump holds the whole count)
    files: Dict[str, Path] = field(default_factory=dict)

    @property
    def n_components(self) -> int:
        return len(self.gff.components)

    def transcript_records(self) -> List[SeqRecord]:
        return [t.to_record() for t in self.transcripts]
