"""Integration tests: the full serial Trinity pipeline on miniature data."""

import pytest

from repro.errors import PipelineError
from repro.obs.span import stage_seconds
from repro.seq.fasta import read_fasta
from repro.seq.kmer_index import read_counter_dump
from repro.trinity import TrinityConfig, TrinityPipeline
from repro.trinity.jellyfish import JellyfishCounts
from repro.validation import reference_recovery


class TestSmokeRun:
    def test_produces_transcripts(self, smoke_result):
        assert smoke_result.transcripts
        assert smoke_result.contigs
        assert smoke_result.n_components > 0

    def test_all_stages_timed(self, smoke_result):
        stages = stage_seconds(smoke_result.spans)
        for expected in [
            "jellyfish",
            "inchworm",
            "chrysalis.bowtie",
            "chrysalis.graph_from_fasta",
            "chrysalis.fasta_to_debruijn",
            "chrysalis.reads_to_transcripts",
            "chrysalis.quantify_graph",
            "butterfly",
        ]:
            assert expected in stages

    def test_components_cover_all_contigs(self, smoke_result):
        members = sorted(
            m for comp in smoke_result.gff.components for m in comp.members
        )
        assert members == list(range(len(smoke_result.contigs)))

    def test_assignments_cover_all_reads(self, smoke_result, smoke_reads):
        assert len(smoke_result.assignments) == len(smoke_reads)
        assert [a.read_index for a in smoke_result.assignments] == list(
            range(len(smoke_reads))
        )

    def test_most_reads_assigned(self, smoke_result, smoke_reads):
        assigned = sum(1 for a in smoke_result.assignments if a.component >= 0)
        assert assigned / len(smoke_reads) > 0.9

    def test_assigned_components_exist(self, smoke_result):
        ids = {c.id for c in smoke_result.gff.components}
        for a in smoke_result.assignments:
            if a.component >= 0:
                assert a.component in ids

    def test_transcripts_reference_real_components(self, smoke_result):
        ids = {c.id for c in smoke_result.gff.components}
        for t in smoke_result.transcripts:
            assert t.component in ids

    def test_recovers_some_reference(self, smoke_result, smoke_txome):
        rec = reference_recovery(
            [t.seq for t in smoke_result.transcripts], smoke_txome.records()
        )
        assert rec.isoforms_full_length >= 1

    def test_deterministic_given_seed(self, smoke_reads, smoke_result):
        again = TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads)
        assert [t.seq for t in again.transcripts] == [
            t.seq for t in smoke_result.transcripts
        ]

    def test_seed_changes_output_distribution(self, smoke_reads, smoke_result):
        other = TrinityPipeline(TrinityConfig(seed=99)).run(smoke_reads)
        # Slightly different output (paper SS:IV: "slightly indeterministic"),
        # but same scale.
        assert 0.5 < len(other.transcripts) / max(1, len(smoke_result.transcripts)) < 2.0

    def test_empty_reads_rejected(self):
        """Both drivers walk one chain, which refuses an empty read set
        before any stage runs."""
        from repro.parallel.driver import ParallelTrinityDriver

        for driver in (TrinityPipeline(), ParallelTrinityDriver()):
            with pytest.raises(PipelineError, match="no reads supplied"):
                driver.run([])

    def test_contigless_reads_rejected_with_the_hint(self, smoke_reads):
        """Reads too sparse for any contig stop both drivers at the first
        stage that needs contigs, naming ``k`` and ``min_kmer_count``."""
        from repro.parallel.driver import ParallelTrinityConfig, ParallelTrinityDriver

        cfg = TrinityConfig(seed=1, min_kmer_count=10_000)
        for driver in (
            TrinityPipeline(cfg),
            ParallelTrinityDriver(ParallelTrinityConfig(trinity=cfg, nprocs=2, nthreads=2)),
        ):
            with pytest.raises(PipelineError, match="k=25 with min_kmer_count=10000"):
                driver.run(smoke_reads[:20])

    def test_even_k_rejected(self):
        with pytest.raises(PipelineError):
            TrinityConfig(k=24)


class TestFileExchange:
    def test_workdir_files_written(self, smoke_reads, tmp_path):
        result = TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads, workdir=tmp_path)
        for key in ["jellyfish_dump", "inchworm_contigs", "bowtie_sam", "reads_to_transcripts", "transcripts"]:
            assert key in result.files
            assert result.files[key].exists()
            assert result.files[key].stat().st_size > 0

    def test_jellyfish_dump_reloads(self, smoke_reads, tmp_path):
        result = TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads, workdir=tmp_path)
        # The dump holds the whole count; the result, its solid k-mers.
        loaded = JellyfishCounts(25, index=read_counter_dump(result.files["jellyfish_dump"]))
        assert len(loaded) > len(result.counts)
        assert loaded.filtered(TrinityConfig().min_kmer_count) == result.counts

    def test_contig_fasta_matches_result(self, smoke_reads, tmp_path):
        result = TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads, workdir=tmp_path)
        recs = read_fasta(result.files["inchworm_contigs"])
        assert [r.seq for r in recs] == [c.seq for c in result.contigs]

    def test_bowtie_and_assignment_files_are_the_record_oracles_text(
        self, smoke_reads, tmp_path
    ):
        """The two Chrysalis files render from columns: ``bowtie.sam`` is the
        record oracle's text of the single-index run, and
        ``readsToComponents.out`` of the returned assignments; the
        scaffold pairs counted from the columns are the ones
        ``scaffold_pairs_from_sam`` counts over those records."""
        from repro.trinity.bowtie import BowtieIndex, scaffold_pairs_from_sam
        from repro.trinity.chrysalis.graph_from_fasta import graph_from_fasta
        from tests.helpers import bowtie_align
        from tests.reference_rtt import format_assignments
        from tests.reference_sam import format_sam

        cfg = TrinityConfig(seed=1)
        result = TrinityPipeline(cfg).run(smoke_reads, workdir=tmp_path)
        contigs = result.contigs
        records = bowtie_align(smoke_reads, contigs, cfg.bowtie())
        header = BowtieIndex(contigs, cfg.bowtie()).header()
        assert result.files["bowtie_sam"].read_bytes() == format_sam(records, header).encode()
        assert result.files["reads_to_transcripts"].read_bytes() == format_assignments(
            result.assignments
        ).encode()
        scaffolds = scaffold_pairs_from_sam(
            records, {c.name: i for i, c in enumerate(contigs)},
            contig_lengths={c.name: len(c.seq) for c in contigs},
        )
        assert scaffolds
        want = graph_from_fasta(contigs, smoke_reads, cfg.gff(), extra_pairs=scaffolds)
        assert result.gff.components == want.components

    def test_transcript_fasta_matches_result(self, smoke_reads, tmp_path):
        result = TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads, workdir=tmp_path)
        recs = read_fasta(result.files["transcripts"])
        assert [r.seq for r in recs] == [t.seq for t in result.transcripts]
