"""Unit tests for GraphFromFasta welding (loops 1 and 2)."""

import pytest

import numpy as np

from repro.errors import PipelineError
from repro.mpi import mpirun
from repro.parallel.mpi_graph_from_fasta import GffInputs, GffStageConfig, mpi_graph_from_fasta
from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    build_weld_index,
    build_weldmer_index,
    canonical_weldmer,
    find_weld_pairs_for_contig,
    graph_from_fasta,
    harvest_welds_for_contig,
    shared_seed_array,
    weld_index_keys,
)

WELD_K = 8

# A transcript with distinct k-mers throughout (no repeats at k=8).
SRC = "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCATTTGGCCAATGGCATCCAGTATGC"


def make_reads(*seqs, copies=2):
    return [
        SeqRecord(f"r{i}_{j}", s) for i, s in enumerate(seqs) for j in range(copies)
    ]


def split_contigs(src, cut=35, overlap=WELD_K):
    """Two contigs overlapping by exactly one weld k-mer."""
    a = Contig("A", src[:cut])
    b = Contig("B", src[cut - overlap :])
    return [a, b]


class TestConfig:
    def test_odd_weld_k_rejected(self):
        with pytest.raises(PipelineError):
            GraphFromFastaConfig(k=7)

    def test_tiny_k_rejected(self):
        with pytest.raises(PipelineError):
            GraphFromFastaConfig(k=2)

    def test_window_size(self):
        assert GraphFromFastaConfig(k=8).window == 16

    def test_k_above_30_rejected(self):
        """A weldmer is two packed k-mers, so k <= MAX_K; even makes it 30."""
        assert GraphFromFastaConfig(k=30).window == 60
        with pytest.raises(PipelineError, match=r"\[4, 30\]"):
            GraphFromFastaConfig(k=32)

    def test_nonpositive_read_support_rejected(self):
        """0 would weld every pair sharing a seed, reads or no reads."""
        with pytest.raises(PipelineError, match="min_weld_read_support"):
            GraphFromFastaConfig(min_weld_read_support=0)

    def test_nonpositive_contigs_sharing_rejected(self):
        """0 would make every k-mer of every contig a "shared" seed."""
        with pytest.raises(PipelineError, match="min_contigs_sharing"):
            GraphFromFastaConfig(min_contigs_sharing=0)


class TestWelding:
    def test_overlapping_contigs_weld(self):
        contigs = split_contigs(SRC)
        result = graph_from_fasta(contigs, make_reads(SRC), GraphFromFastaConfig(k=WELD_K))
        assert result.pairs == [(0, 1)]
        assert len(result.components) == 1
        assert result.components[0].members == (0, 1)

    def test_reverse_complement_contig_welds(self):
        a, b = split_contigs(SRC)
        b_rc = Contig("B", reverse_complement(b.seq))
        result = graph_from_fasta([a, b_rc], make_reads(SRC), GraphFromFastaConfig(k=WELD_K))
        assert result.pairs == [(0, 1)]

    def test_unrelated_contigs_stay_separate(self):
        other = "TTGACCGTAGGCTAACCGTTAGGCCTATGCGATCAGGCTTATTACCGGCAGGTACCTTAG"
        contigs = [Contig("A", SRC), Contig("B", other)]
        result = graph_from_fasta(contigs, make_reads(SRC, other), GraphFromFastaConfig(k=WELD_K))
        assert result.pairs == []
        assert len(result.components) == 2

    def test_shared_repeat_without_read_support_does_not_weld(self):
        # Two transcripts sharing an 8-mer "repeat", but no read ever spans
        # a chimeric junction between them.
        repeat = "ACGTTGCA"
        s1 = "ATCGGATTACAGTCC" + repeat + "GGTTAACGAGCTTGG"
        s2 = "TTGACCGTAGGCTAA" + repeat + "CCTATGCGATCAGGC"
        contigs = [Contig("A", s1), Contig("B", s2)]
        result = graph_from_fasta(contigs, make_reads(s1, s2), GraphFromFastaConfig(k=WELD_K))
        assert result.pairs == []

    def test_chimeric_junction_with_read_support_welds(self):
        # Same repeat, but now "reads" spanning the chimeric junction
        # exist, so the weld is supported.
        repeat = "ACGTTGCA"
        s1 = "ATCGGATTACAGTCC" + repeat + "GGTTAACGAGCTTGG"
        s2 = "TTGACCGTAGGCTAA" + repeat + "CCTATGCGATCAGGC"
        junction = s1[: 15 + len(repeat)] + s2[15 + len(repeat) :]
        contigs = [Contig("A", s1), Contig("B", s2)]
        result = graph_from_fasta(
            contigs, make_reads(s1, s2, junction), GraphFromFastaConfig(k=WELD_K)
        )
        assert result.pairs == [(0, 1)]

    def test_insufficient_read_support_blocks_weld(self):
        contigs = split_contigs(SRC)
        result = graph_from_fasta(
            contigs, make_reads(SRC, copies=1), GraphFromFastaConfig(k=WELD_K)
        )
        assert result.pairs == []

    def test_extra_pairs_merge_components(self):
        other = "TTGACCGTAGGCTAACCGTTAGGCCTATGCGATCAGGCTTATTACCGGCAGGTACCTTAG"
        contigs = [Contig("A", SRC), Contig("B", other)]
        result = graph_from_fasta(
            contigs,
            make_reads(SRC, other),
            GraphFromFastaConfig(k=WELD_K),
            extra_pairs=[(1, 0)],
        )
        assert result.pairs == [(0, 1)]
        assert len(result.components) == 1

    def test_duplicate_pairs_deduplicated(self):
        contigs = split_contigs(SRC)
        result = graph_from_fasta(
            contigs, make_reads(SRC, copies=4), GraphFromFastaConfig(k=WELD_K)
        )
        assert result.pairs == [(0, 1)]


class TestKernels:
    def test_harvest_only_shared_seeds(self):
        contigs = split_contigs(SRC)
        cfg = GraphFromFastaConfig(k=WELD_K)
        welds_a = harvest_welds_for_contig(0, contigs[0], cfg, shared_seed_array(contigs, cfg))
        assert len(welds_a) == 1
        assert welds_a[0].owner == 0
        assert welds_a[0].seed in contigs[0].seq

    def test_weld_index_groups_by_seed(self):
        contigs = split_contigs(SRC)
        cfg = GraphFromFastaConfig(k=WELD_K)
        shared = shared_seed_array(contigs, cfg)
        welds = []
        for i, c in enumerate(contigs):
            welds.extend(harvest_welds_for_contig(i, c, cfg, shared))
        index = build_weld_index(welds)
        assert len(index) == 1
        (entries,) = index.values()
        assert len(entries) == 2  # harvested from both owners

    def test_weldmer_index_counts_occurrences(self):
        contigs = split_contigs(SRC)
        cfg = GraphFromFastaConfig(k=WELD_K)
        shared = shared_seed_array(contigs, cfg)
        assert shared.dtype == np.uint64 and shared.size == 1  # the one overlap k-mer
        index = build_weldmer_index(make_reads(SRC, copies=3), shared, cfg)
        assert index
        assert all(count == 3 for count in index.values())

    def test_weldmer_index_empty_without_shared_seeds(self):
        cfg = GraphFromFastaConfig(k=WELD_K)
        assert shared_seed_array([Contig("A", SRC)], cfg).size == 0
        assert build_weldmer_index(make_reads(SRC), shared_seed_array([], cfg), cfg) == {}

    def test_weldmer_index_strand_invariant(self):
        contigs = split_contigs(SRC)
        cfg = GraphFromFastaConfig(k=WELD_K)
        shared = shared_seed_array(contigs, cfg)
        fwd = build_weldmer_index(make_reads(SRC), shared, cfg)
        rev = build_weldmer_index(make_reads(reverse_complement(SRC)), shared, cfg)
        assert fwd == rev

    def test_canonical_weldmer_strand_invariant(self):
        w = SRC[:16]
        assert canonical_weldmer(w) == canonical_weldmer(reverse_complement(w))

    def test_short_contig_harvests_nothing(self):
        cfg = GraphFromFastaConfig(k=WELD_K)
        tiny = Contig("tiny", "ACG")
        welds = harvest_welds_for_contig(0, tiny, cfg, shared_seed_array([tiny, tiny], cfg))
        assert welds == []


class TestVectorizedKernels:
    """The numpy membership-mask paths must reproduce the dict-probe paths
    bit for bit (content AND order)."""

    def _setup(self):
        contigs = split_contigs(SRC)
        cfg = GraphFromFastaConfig(k=WELD_K)
        return contigs, cfg, shared_seed_array(contigs, cfg)

    def test_find_pairs_same_with_and_without_weld_keys(self):
        contigs, cfg, shared = self._setup()
        welds = []
        for i, c in enumerate(contigs):
            welds.extend(harvest_welds_for_contig(i, c, cfg, shared))
        index = build_weld_index(welds)
        keys = weld_index_keys(index)
        weldmers = build_weldmer_index(make_reads(SRC), shared, cfg)
        for i, c in enumerate(contigs):
            plain = find_weld_pairs_for_contig(i, c, welds, index, weldmers, cfg)
            fast = find_weld_pairs_for_contig(i, c, welds, index, weldmers, cfg, keys)
            assert plain == fast

    def test_empty_shared_seed_array(self):
        contigs, cfg, _shared = self._setup()
        empty = np.array([], dtype=np.uint64)
        assert harvest_welds_for_contig(0, contigs[0], cfg, empty) == []
        assert build_weldmer_index(make_reads(SRC), empty, cfg) == {}


class TestWeldmerPositionsUnderN:
    """Weldmers are indexed by position in the read.  The scan used to
    index the read's *clean* windows by rank, so one ``N`` early in a read
    shifted every later weldmer of that read six bases to the right (k=24:
    a 12-base flank minus the 24 - 6 windows the ``N`` spoiled ... in
    short, the wrong window) and real junctions silently lost their read
    support.  Pinned rule: position-indexed; a window holding a non-ACGT
    base is not counted, and nothing else moves."""

    K = 24
    # 100 distinct-looking bases; bases 50-73 are the seed two contigs share.
    READ = (
        "GTCAGGATCTTGACCGTAAGCTAGGCTTACGATCCAGTGC"
        "AGGATCGTTCAACGGTCATGCCTAAGTCTCGTAGGACTTA"
        "CGGTATCCGAGATTGCACTG"
    )

    def _case(self):
        cfg = GraphFromFastaConfig(k=self.K)
        contigs = [Contig("a", self.READ[:74]), Contig("b", self.READ[50:])]
        shared = shared_seed_array(contigs, cfg)
        assert shared.size == 1
        return cfg, contigs, shared, canonical_weldmer(self.READ[38:86])

    @staticmethod
    def _with_n(seq, at):
        return seq[:at] + "N" + seq[at + 1 :]

    def test_n_before_the_weldmer_shifts_nothing(self):
        cfg, _contigs, shared, weldmer = self._case()
        clean = build_weldmer_index([SeqRecord("r", self.READ)], shared, cfg)
        dirty = build_weldmer_index([SeqRecord("r", self._with_n(self.READ, 5))], shared, cfg)
        assert clean == {weldmer: 1}
        assert dirty == clean

    def test_n_inside_a_flank_drops_that_window_only(self):
        cfg, _contigs, shared, weldmer = self._case()
        twice = self.READ[38:86] * 2  # the same weldmer at bases 0 and 48
        assert build_weldmer_index([SeqRecord("r", twice)], shared, cfg) == {weldmer: 2}
        for at in (2, 11, 36, 47):  # either flank of the first window
            read = SeqRecord("r", self._with_n(twice, at))
            assert build_weldmer_index([read], shared, cfg) == {weldmer: 1}

    @pytest.mark.parametrize("at, pairs", [(5, [(0, 1)]), (40, [])])
    def test_through_the_stage_at_three_ranks(self, at, pairs):
        """Two reads span the a|b junction: an ``N`` outside their weldmer
        keeps the weld pair, one inside its left flank loses it."""
        cfg, contigs, _shared, _weldmer = self._case()
        reads = [SeqRecord(f"r{i}", self._with_n(self.READ, at)) for i in range(2)]
        assert graph_from_fasta(contigs, reads, cfg).pairs == pairs
        run = mpirun(
            mpi_graph_from_fasta, 3,
            GffInputs(contigs=contigs, reads=reads), GffStageConfig(gff=cfg, nthreads=2),
        )
        assert [out.pairs for out in run.outputs] == [pairs] * 3
