"""Unit tests for the Inchworm greedy assembler."""

import pytest

from repro.errors import PipelineError
from repro.seq.alphabet import reverse_complement
from repro.seq.records import SeqRecord
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count


def counts_for(*seqs, k=7):
    return jellyfish_count([SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)], k)


class TestBasicAssembly:
    def test_reconstructs_unique_sequence(self):
        # A sequence with all-distinct k-mers reassembles exactly (possibly RC).
        src = "ATCGGATTACAGTCCGGTTAACGGATCCTAGG"
        counts = counts_for(*(src[i : i + 12] for i in range(0, len(src) - 11)), k=7)
        contigs = inchworm_assemble(counts, InchwormConfig())
        assert len(contigs) == 1
        assert contigs[0].seq in (src, reverse_complement(src))

    def test_error_kmers_filtered(self):
        src = "ATCGGATTACAGTCCGGTTAACG"
        counts = counts_for(src, src, "ATCGGATTACAGTCC")  # plus a one-off error read
        contigs = inchworm_assemble(counts.filtered(2), InchwormConfig())
        # k-mers appearing only once (from the shorter read beyond overlap) drop out
        assert all(c.coverage >= 2 for c in contigs)

    def test_min_contig_length_filter(self):
        src = "ATCGGATTACAGTCCGGTTAACG"  # 23 bp < 2k for k=25... use k=7: 2k=14
        counts = counts_for(src, k=7)
        short = inchworm_assemble(counts, InchwormConfig(min_contig_length=50))
        assert short == []
        ok = inchworm_assemble(counts, InchwormConfig())
        assert len(ok) == 1

    def test_empty_counts(self):
        counts = counts_for("AAA", k=3)
        assert inchworm_assemble(counts.filtered(10), InchwormConfig()) == []

    def test_contig_names_sequential(self):
        src1 = "ATCGGATTACAGTCCGGTTAACG"
        src2 = "GGCATGCATTTGGCCAATGGCAT"
        counts = counts_for(src1, src2, k=7)
        contigs = inchworm_assemble(counts, InchwormConfig())
        assert [c.name for c in contigs] == [f"iw_contig_{i}" for i in range(len(contigs))]

    def test_coverage_reflects_abundance(self):
        src = "ATCGGATTACAGTCCGGTTAACG"
        lo = inchworm_assemble(counts_for(src, k=7), InchwormConfig())
        hi = inchworm_assemble(counts_for(src, src, src, k=7), InchwormConfig())
        assert hi[0].coverage == pytest.approx(3 * lo[0].coverage)

    def test_bad_k_rejected(self):
        counts = counts_for("ACGT", k=3)
        counts.k = 1
        with pytest.raises(PipelineError):
            inchworm_assemble(counts)


class TestDeterminismAndSeeds:
    def test_same_seed_same_output(self):
        src1 = "ATCGGATTACAGTCCGGTTAACGAGCTT"
        src2 = "GGCATGCATTTGGCCAATGGCATCCAGT"
        counts = counts_for(src1, src2, k=7)
        cfg = InchwormConfig(seed=5)
        a = inchworm_assemble(counts, cfg)
        b = inchworm_assemble(counts, cfg)
        assert [c.seq for c in a] == [c.seq for c in b]

    def test_kmers_used_once_across_contigs(self):
        from repro.seq.kmers import canonical_kmers

        src1 = "ATCGGATTACAGTCCGGTTAACGAGCTT"
        src2 = "GGCATGCATTTGGCCAATGGCATCCAGT"
        counts = counts_for(src1, src2, k=7)
        contigs = inchworm_assemble(counts, InchwormConfig())
        seen = set()
        for c in contigs:
            for code in canonical_kmers(c.seq, 7).tolist():
                assert code not in seen
                seen.add(code)

    def test_no_contig_exceeds_max_length(self):
        counts = counts_for("ACGT" * 50, k=7)  # cyclic k-mer structure
        contigs = inchworm_assemble(
            counts, InchwormConfig(max_contig_length=20, min_contig_length=1)
        )
        for c in contigs:
            # max_contig_length bounds the k-mer count per contig
            assert len(c.seq) <= 20 + 7
