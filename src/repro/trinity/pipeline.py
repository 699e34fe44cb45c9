"""The Trinity workflow driver (``Trinity.pl`` equivalent).

Runs the four modules in order — Jellyfish, Inchworm, Chrysalis (Bowtie,
GraphFromFasta, FastaToDebruijn, ReadsToTranscripts, QuantifyGraph),
Butterfly — exchanging data through files when a working directory is
given, exactly as the original pipeline does ("the software modules
exchange data through files", paper SS:II.A).

The serial Chrysalis here is the *original OpenMP-only* code path; the
hybrid MPI+OpenMP Chrysalis of the paper lives in
:mod:`repro.parallel.driver` and produces statistically equivalent output
(validated by :mod:`repro.validation`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import PipelineError
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage, peak_ram_gb, stage_seconds
from repro.seq.fasta import write_fasta
from repro.seq.records import Contig, SeqRecord, Transcript
from repro.seq.sam import write_sam
from repro.trinity.bowtie import BowtieConfig, BowtieIndex, align_reads, scaffold_pairs_from_sam
from repro.trinity.butterfly import ButterflyConfig, butterfly_assemble
from repro.trinity.chrysalis.debruijn import DeBruijnGraph, fasta_to_debruijn
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    GraphFromFastaResult,
    graph_from_fasta,
)
from repro.trinity.chrysalis.orient import orient_component
from repro.trinity.chrysalis.quantify import ComponentQuant, quantify_graph
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadAssignment,
    ReadsToTranscriptsConfig,
    reads_to_transcripts,
)
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import (
    JellyfishConfig,
    JellyfishCounts,
    jellyfish_count,
    jellyfish_dump,
)

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)


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
    #: graph components to that many thread clocks.  Timing only: the
    #: contigs are the serial reference's at every value, and this serial
    #: pipeline always runs the reference itself — a one-node threaded
    #: Inchworm is the parallel driver at ``nprocs=1``.
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
        return InchwormConfig(min_kmer_count=self.min_kmer_count, seed=self.seed)

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
    counts: JellyfishCounts
    files: Dict[str, Path] = field(default_factory=dict)

    @property
    def n_components(self) -> int:
        return len(self.gff.components)

    def transcript_records(self) -> List[SeqRecord]:
        return [t.to_record() for t in self.transcripts]


class TrinityPipeline:
    """Run the full Trinity workflow on an in-memory read set."""

    def __init__(self, config: Optional[TrinityConfig] = None) -> None:
        self.config = config or TrinityConfig()

    def run(
        self,
        reads: Sequence[SeqRecord],
        workdir: Optional[PathLike] = None,
    ) -> StageResult:
        """Assemble ``reads``; write stage files under ``workdir`` if given.

        Returns a :class:`~repro.obs.result.StageResult` whose ``outputs``
        is the :class:`TrinityResult` and whose ``spans`` time each stage
        on the host wall clock, back to back (:func:`host_stage`).
        """
        if not reads:
            raise PipelineError("no reads supplied")
        cfg = self.config
        spans: List[Span] = []
        files: Dict[str, Path] = {}
        wd = Path(workdir) if workdir is not None else None
        if wd is not None:
            wd.mkdir(parents=True, exist_ok=True)

        logger.info("trinity: %d reads, k=%d, seed=%d", len(reads), cfg.k, cfg.seed)

        # -- Jellyfish ------------------------------------------------------
        with host_stage(spans, "jellyfish") as st:
            jcfg = cfg.jellyfish()
            counts = jellyfish_count(
                reads, jcfg.k, canonical=jcfg.canonical, batch_bases=jcfg.batch_bases
            )
            st.ram_bytes = counts.memory_bytes()
        logger.info("jellyfish: %d distinct %d-mers", len(counts), cfg.k)
        if wd is not None:
            files["jellyfish_dump"] = wd / "jellyfish.kmers.fa"
            jellyfish_dump(counts, files["jellyfish_dump"])

        # -- Inchworm --------------------------------------------------------
        with host_stage(spans, "inchworm") as st:
            contigs = inchworm_assemble(counts, cfg.inchworm())
            st.ram_bytes = counts.memory_bytes() + sum(len(c.seq) for c in contigs)
        if not contigs:
            raise PipelineError(
                "inchworm produced no contigs; reads may be too sparse for "
                f"k={cfg.k} with min_kmer_count={cfg.min_kmer_count}"
            )
        logger.info("inchworm: %d contigs", len(contigs))
        if wd is not None:
            files["inchworm_contigs"] = wd / "inchworm.contigs.fa"
            write_fasta(files["inchworm_contigs"], [c.to_record() for c in contigs])

        # -- Chrysalis: Bowtie ------------------------------------------------
        scaffolds: List[Tuple[int, int]] = []
        if cfg.use_bowtie_scaffolds:
            with host_stage(spans, "chrysalis.bowtie") as st:
                index = BowtieIndex(contigs, cfg.bowtie())
                sams = align_reads(reads, index)
                st.ram_bytes = index.memory_bytes()
            if wd is not None:
                files["bowtie_sam"] = wd / "bowtie.sam"
                write_sam(files["bowtie_sam"], sams, index.header())
            name_to_idx = {c.name: i for i, c in enumerate(contigs)}
            lengths = {c.name: len(c.seq) for c in contigs}
            scaffolds = scaffold_pairs_from_sam(sams, name_to_idx, contig_lengths=lengths)

        # -- Chrysalis: GraphFromFasta ----------------------------------------
        with host_stage(spans, "chrysalis.graph_from_fasta") as st:
            gff_result = graph_from_fasta(contigs, reads, cfg.gff(), extra_pairs=scaffolds)
            st.ram_bytes = sum(len(w.window) for w in gff_result.welds) * 2

        logger.info(
            "graph_from_fasta: %d welds, %d pairs, %d components",
            len(gff_result.welds), len(gff_result.pairs), len(gff_result.components),
        )

        # -- Chrysalis: FastaToDebruijn ---------------------------------------
        with host_stage(spans, "chrysalis.fasta_to_debruijn") as st:
            graphs: Dict[int, DeBruijnGraph] = {}
            for comp in gff_result.components:
                oriented = orient_component(
                    [contigs[m].seq for m in comp.members], cfg.weld_k
                )
                graphs[comp.id] = fasta_to_debruijn(oriented, cfg.k)
            st.ram_bytes = sum(g.nbytes for g in graphs.values())

        # -- Chrysalis: ReadsToTranscripts ------------------------------------
        with host_stage(spans, "chrysalis.reads_to_transcripts") as st:
            out_path = (wd / "readsToComponents.out") if wd is not None else None
            assignments = reads_to_transcripts(
                reads, contigs, gff_result.components, cfg.rtt(), out_path=out_path
            )
            if out_path is not None:
                files["reads_to_transcripts"] = out_path
            st.ram_bytes = cfg.max_mem_reads * 200

        # -- Chrysalis: QuantifyGraph -----------------------------------------
        with host_stage(spans, "chrysalis.quantify_graph") as st:
            quants = quantify_graph(
                graphs, list(reads), assignments,
                kmer_counts=counts, min_kmer_count=cfg.min_kmer_count,
            )
            st.ram_bytes = sum(g.nbytes for g in graphs.values())

        # -- Butterfly ---------------------------------------------------------
        with host_stage(spans, "butterfly") as st:
            transcripts = butterfly_assemble(graphs, cfg.butterfly())
            if cfg.use_pair_reconciliation:
                from repro.trinity.pairs import reconcile_with_pairs

                transcripts, _pair_stats = reconcile_with_pairs(
                    transcripts, list(reads), assignments
                )
            st.ram_bytes = sum(len(t.seq) for t in transcripts)
        logger.info("butterfly: %d transcripts", len(transcripts))
        if wd is not None:
            files["transcripts"] = wd / "Trinity.fasta"
            write_fasta(files["transcripts"], [t.to_record() for t in transcripts])

        result = TrinityResult(
            transcripts=transcripts,
            contigs=contigs,
            gff=gff_result,
            assignments=assignments,
            quants=quants,
            counts=counts,
            files=files,
        )
        return StageResult(
            stage="trinity",
            outputs=result,
            makespan=spans[-1].stop,
            spans=spans,
            metrics={
                **{f"stage.{label}_s": s for label, s in stage_seconds(spans).items()},
                "n_transcripts": float(len(transcripts)),
                "n_contigs": float(len(contigs)),
                "n_components": float(result.n_components),
                "peak_ram_gb": peak_ram_gb(spans),
            },
        )
