"""Unit tests for synthetic transcriptomes, expression and reads."""

import numpy as np
import pytest

from repro.seq.alphabet import reverse_complement
from repro.simdata.datasets import (
    DatasetRecipe,
    SUGARBEET_PAPER,
    get_paper_workload,
    get_recipe,
    list_recipes,
)
from repro.simdata.expression import (
    ExpressionModel,
    length_weighted,
    lognormal_expression,
)
from repro.simdata.reads import ReadSimulator, flatten_reads
from repro.simdata.transcriptome import generate_transcriptome
from tests.helpers import is_valid_dna, uniform_expression


class TestTranscriptome:
    def test_gene_count(self):
        txome = generate_transcriptome(10, seed=0)
        assert len(txome) == 10

    def test_every_gene_has_primary_isoform(self):
        txome = generate_transcriptome(12, seed=1)
        for gene in txome.genes:
            assert gene.isoforms
            assert gene.isoforms[0].exon_indices == tuple(range(len(gene.exons)))

    def test_isoform_sequences_valid_dna(self):
        txome = generate_transcriptome(5, seed=2)
        for iso in txome.isoforms:
            assert is_valid_dna(iso.seq)

    def test_isoforms_keep_terminal_exons(self):
        txome = generate_transcriptome(30, seed=3)
        for gene in txome.genes:
            n = len(gene.exons)
            for iso in gene.isoforms:
                assert iso.exon_indices[0] == 0
                assert iso.exon_indices[-1] == n - 1

    def test_isoforms_distinct_within_gene(self):
        txome = generate_transcriptome(30, seed=4)
        for gene in txome.genes:
            combos = [iso.exon_indices for iso in gene.isoforms]
            assert len(combos) == len(set(combos))

    def test_deterministic_by_seed(self):
        a = generate_transcriptome(6, seed=5)
        b = generate_transcriptome(6, seed=5)
        assert [i.seq for i in a.isoforms] == [i.seq for i in b.isoforms]

    def test_seed_changes_output(self):
        a = generate_transcriptome(6, seed=5)
        b = generate_transcriptome(6, seed=6)
        assert [i.seq for i in a.isoforms] != [i.seq for i in b.isoforms]

    def test_records_carry_gene_annotation(self):
        txome = generate_transcriptome(3, seed=0)
        for rec in txome.records():
            assert rec.description.startswith("gene=")

    def test_zero_genes_rejected(self):
        with pytest.raises(ValueError):
            generate_transcriptome(0)


class TestExpression:
    def test_weights_normalised(self):
        m = lognormal_expression(50, seed=0)
        assert np.isclose(m.weights.sum(), 1.0)

    def test_dynamic_range_grows_with_sigma(self):
        def dynamic_range(m):
            nz = m.weights[m.weights > 0]
            return nz.max() / nz.min()

        lo = lognormal_expression(200, seed=0, sigma=0.3)
        hi = lognormal_expression(200, seed=0, sigma=2.0)
        assert dynamic_range(hi) > dynamic_range(lo)

    def test_uniform(self):
        m = uniform_expression(4)
        assert np.allclose(m.weights, 0.25)

    def test_length_weighting(self):
        m = uniform_expression(2)
        w = length_weighted(m, [100, 300])
        assert np.isclose(w.weights[1] / w.weights[0], 3.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            length_weighted(uniform_expression(2), [100])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            ExpressionModel(np.array([0.5, -0.1]))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ExpressionModel(np.zeros(3))


class TestReadSimulator:
    def test_read_count_exact(self):
        sim = ReadSimulator(read_len=50)
        pairs = sim.simulate(["A" * 500, "C" * 400], uniform_expression(2), 100, seed=0)
        total = sum(2 if p.is_paired else 1 for p in pairs)
        assert total == 100

    def test_read_length(self):
        sim = ReadSimulator(read_len=40)
        pairs = sim.simulate(["ACGT" * 100], uniform_expression(1), 20, seed=1)
        for rec in flatten_reads(pairs):
            assert len(rec.seq) == 40

    def test_zero_error_reads_match_source(self):
        src = ("ACGT" * 200)[:600]
        sim = ReadSimulator(read_len=50, error_rate=0.0)
        pairs = sim.simulate([src], uniform_expression(1), 30, seed=2)
        rc = reverse_complement(src)
        for rec in flatten_reads(pairs):
            assert rec.seq in src or rec.seq in rc

    def test_error_rate_perturbs(self):
        src = "ACGT" * 300
        hi = ReadSimulator(read_len=60, error_rate=0.2)
        pairs = hi.simulate([src], uniform_expression(1), 40, seed=3)
        rc = reverse_complement(src)
        mismatched = sum(
            1 for rec in flatten_reads(pairs) if rec.seq not in src and rec.seq not in rc
        )
        assert mismatched > 0

    def test_single_end_fraction(self):
        sim = ReadSimulator(read_len=30, paired_fraction=0.0)
        pairs = sim.simulate(["A" * 300], uniform_expression(1), 10, seed=4)
        assert all(not p.is_paired for p in pairs)

    def test_short_isoform_skipped(self):
        sim = ReadSimulator(read_len=100)
        pairs = sim.simulate(["A" * 30, "C" * 500], uniform_expression(2), 10, seed=5)
        # no read can come from the 30bp isoform
        for rec in flatten_reads(pairs):
            assert "C" in rec.seq or "G" in rec.seq

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ReadSimulator(read_len=0)
        with pytest.raises(ValueError):
            ReadSimulator(error_rate=1.5)
        with pytest.raises(ValueError):
            ReadSimulator(paired_fraction=2.0)

    def test_deterministic(self):
        sim = ReadSimulator(read_len=50)
        a = sim.simulate(["ACGT" * 100], uniform_expression(1), 20, seed=6)
        b = sim.simulate(["ACGT" * 100], uniform_expression(1), 20, seed=6)
        assert [p.left.seq for p in a] == [p.left.seq for p in b]


class TestDatasets:
    def test_known_recipes(self):
        names = list_recipes()
        for expected in ["sugarbeet-mini", "whitefly-mini", "fission-yeast-mini", "drosophila-mini", "smoke"]:
            assert expected in names

    def test_unknown_recipe_raises_with_names(self):
        with pytest.raises(KeyError, match="sugarbeet-mini"):
            get_recipe("nope")

    def test_materialize_counts(self):
        txome, pairs = get_recipe("smoke").materialize(seed=0)
        total = sum(2 if p.is_paired else 1 for p in pairs)
        assert total == get_recipe("smoke").n_reads
        assert len(txome) == get_recipe("smoke").n_genes

    def test_write_creates_files(self, tmp_path):
        paths = get_recipe("smoke").write(tmp_path, seed=0)
        assert paths["reads"].exists()
        assert paths["reference"].exists()

    def test_paper_workload_lengths(self):
        lengths = SUGARBEET_PAPER.contig_lengths(seed=0)
        assert lengths.size == SUGARBEET_PAPER.n_contigs
        assert lengths.min() >= 100
        assert lengths.max() <= 30000

    def test_paper_workload_long_tail(self):
        lengths = SUGARBEET_PAPER.contig_lengths(seed=0)
        assert np.percentile(lengths, 99.9) > 10 * np.median(lengths)

    def test_unknown_paper_workload(self):
        with pytest.raises(KeyError):
            get_paper_workload("nope")
