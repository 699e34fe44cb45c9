"""Integration test: the Figure-6 fusion mechanism end to end.

Shared UTRs between adjacent genes (the cause the paper names for fused
reconstructions) must propagate through the whole pipeline — Inchworm
walks across the shared block or welding merges the genes — and be
counted by the recovery harness.
"""

import pytest

from repro.simdata.reads import ReadSimulator, flatten_reads
from repro.simdata.transcriptome import generate_transcriptome
from repro.trinity import TrinityConfig, TrinityPipeline
from repro.validation import reference_recovery
from tests.helpers import uniform_expression


@pytest.fixture(scope="module")
def fused_run():
    txome = generate_transcriptome(2, seed=7, shared_utr_prob=1.0, mean_exons=2)
    iso = txome.isoforms
    sim = ReadSimulator(read_len=75, error_rate=0.0)
    pairs = sim.simulate([i.seq for i in iso], uniform_expression(len(iso)), 3000, seed=1)
    result = TrinityPipeline(TrinityConfig(seed=1)).run(flatten_reads(pairs))
    return txome, result


class TestFusion:
    def test_shared_utr_present_in_truth(self, fused_run):
        txome, _result = fused_run
        a = txome.genes[0].isoforms[0].seq
        b = txome.genes[1].isoforms[0].seq
        assert a[-64:] == b[:64]

    def test_pipeline_produces_fused_reconstruction(self, fused_run):
        txome, result = fused_run
        rec = reference_recovery(
            [t.seq for t in result.transcripts], txome.records()
        )
        assert rec.fused_isoforms >= 1
        assert rec.fused_genes == 2

    def test_fusion_spans_both_genes(self, fused_run):
        txome, result = fused_run
        total = sum(len(g.isoforms[0].seq) for g in txome.genes) - 64
        assert any(len(t.seq) >= 0.95 * total for t in result.transcripts)

    def test_both_genes_still_recovered(self, fused_run):
        txome, result = fused_run
        rec = reference_recovery(
            [t.seq for t in result.transcripts], txome.records()
        )
        # Fused or not, both genes count as reconstructed full-length
        # (the paper counts fusions separately but still as full-length).
        assert rec.genes_full_length == 2
