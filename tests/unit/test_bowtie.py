"""Unit tests for the Bowtie-like aligner and scaffold-pair extraction."""

import pytest

from repro.errors import PipelineError
from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.seq.sam import FLAG_REVERSE
from repro.trinity.bowtie import (
    BowtieConfig,
    BowtieIndex,
    ReadSeeds,
    align_seeds,
    scaffold_pairs_from_sam,
)
from tests.helpers import bowtie_align, sam_records
from tests.reference_bowtie import reference_align

C1 = "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCATTTGGCCAATGGCAT"
C2 = "TTGACCGTAGGCTAACCGTTAGGCCTATGCGATCAGGCTTATTACCGGCAG"


def align_read(read, index):
    """One read aligned as a batch of one."""
    hits = align_seeds(ReadSeeds.build([read], index.cfg), index)
    (rec,) = sam_records([read], hits, [c.name for c in index.contigs])
    return rec


@pytest.fixture
def index():
    return BowtieIndex([Contig("c1", C1), Contig("c2", C2)], BowtieConfig(seed_len=12))


class TestAlignment:
    def test_exact_forward(self, index):
        rec = align_read(SeqRecord("r", C1[5:35]), index)
        assert rec.rname == "c1"
        assert rec.pos == 6  # 1-based
        assert rec.nm == 0
        assert not rec.flag & FLAG_REVERSE

    def test_exact_reverse(self, index):
        rec = align_read(SeqRecord("r", reverse_complement(C2[10:40])), index)
        assert rec.rname == "c2"
        assert rec.pos == 11
        assert rec.flag & FLAG_REVERSE

    def test_mismatches_tolerated(self, index):
        read = list(C1[5:35])
        read[10] = "A" if read[10] != "A" else "C"
        rec = align_read(SeqRecord("r", "".join(read)), index)
        assert rec.rname == "c1"
        assert rec.nm == 1

    def test_too_many_mismatches_unmapped(self, index):
        read = list(C1[0:30])
        for i in (14, 17, 20, 23):  # 4 > max_mismatches=3, away from seeds
            read[i] = "A" if read[i] != "A" else "C"
        rec = align_read(SeqRecord("r", "".join(read)), index)
        # Either unmapped or aligned with nm <= 3 via another seed; must not
        # report an alignment with more than max_mismatches.
        assert rec.is_unmapped or rec.nm <= 3

    def test_unrelated_read_unmapped(self, index):
        rec = align_read(SeqRecord("r", "A" * 30), index)
        assert rec.is_unmapped
        assert rec.rname == "*"

    def test_read_shorter_than_seed_unmapped(self, index):
        rec = align_read(SeqRecord("r", "ACGT"), index)
        assert rec.is_unmapped

    def test_detail_exposes_orientations(self, index):
        hits = align_seeds(ReadSeeds.build([SeqRecord("r", C1[5:35])], index.cfg), index)
        # Row 0 is the forward orientation, row 1 the reverse complement.
        assert hits.rows.tolist()[0] == 0 and hits.mm.tolist()[0] == 0
        assert hits.rows.tolist()[1:] in ([], [1]) and all(m > 0 for m in hits.mm.tolist()[1:])

    def test_bowtie_align_batch(self):
        reads = [SeqRecord("a", C1[0:30]), SeqRecord("b", C2[0:30])]
        records = bowtie_align(reads, [Contig("c1", C1), Contig("c2", C2)], BowtieConfig(seed_len=12))
        assert [r.rname for r in records] == ["c1", "c2"]

    def test_batch_of_none_and_empty_index(self):
        assert bowtie_align([], [Contig("c1", C1)], BowtieConfig(seed_len=12)) == []
        (rec,) = bowtie_align([SeqRecord("a", C1[0:30])], [], BowtieConfig(seed_len=12))
        assert rec.is_unmapped

    def test_mismatched_seed_length_rejected(self, index):
        seeds = ReadSeeds.build([SeqRecord("r", C1[5:35])], BowtieConfig(seed_len=10))
        with pytest.raises(PipelineError):
            align_seeds(seeds, index)

    def test_work_counters(self, index):
        hits = align_seeds(ReadSeeds.build([SeqRecord("r", C1[5:35])], index.cfg), index)
        # Three forward seeds, each found once, all proposing one placement.
        assert (hits.n_seed_hits, hits.n_verified) == (3, 1)

    def test_one_seed_per_window(self, index):
        n_windows = sum(len(c) - 12 + 1 for c in (C1, C2))
        assert index.seed_codes.size == index.seed_contig.size == n_windows

    def test_verification_in_blocks(self, monkeypatch):
        """Candidates are compared ``_VERIFY_BASES`` bases at a time; the
        block size must not show in the result."""
        import random

        import repro.trinity.bowtie as bowtie

        rng = random.Random(5)
        contig = "".join(rng.choice("ACGT") for _ in range(300))
        contigs = [Contig("c1", contig), Contig("c2", contig[100:250])]
        reads = [SeqRecord(f"r{i}", contig[a : a + 30 + i % 7]) for i, a in enumerate(range(0, 260, 9))]
        cfg = BowtieConfig(seed_len=12)
        whole = bowtie_align(reads, contigs, cfg)
        assert whole == reference_align(reads, contigs, cfg)[1]
        for bases in (1, 100):  # one candidate per block; a few
            monkeypatch.setattr(bowtie, "_VERIFY_BASES", bases)
            assert bowtie_align(reads, contigs, cfg) == whole

    @pytest.mark.parametrize("seed_len", [12, 31])
    def test_stitch_merges_on_both_sort_paths(self, seed_len):
        """A code and its position share one uint64 key where both fit
        (12-base seeds); 31-base seeds take the argsort.  Either way the
        stitched seeds are the library's, by code, ties in block order."""
        import random

        rng = random.Random(seed_len)
        unit = "".join(rng.choice("ACGT") for _ in range(40))
        # Repeated reads: equal codes in every block.
        reads = [SeqRecord(f"r{i}", unit if i % 3 else unit[::-1]) for i in range(20)]
        cfg = BowtieConfig(seed_len=seed_len)
        whole = ReadSeeds.build(reads, cfg)
        blocks = [ReadSeeds.build(reads[a : a + 6], cfg) for a in range(0, 20, 6)]
        stitched = ReadSeeds.stitch(blocks)
        seeds = lambda t: list(
            zip(t.seed_codes.tolist(), t.seed_rows.tolist(), t.seed_offsets.tolist())
        )
        assert sorted(seeds(stitched)) == sorted(seeds(whole))
        # Within a code, the blocks' seeds in block order (row r's read is r % 20).
        code_block = [(code, row % 20 // 6) for code, row, _at in seeds(stitched)]
        assert code_block == sorted(code_block)

    def test_config_validation(self):
        with pytest.raises(PipelineError):
            BowtieConfig(seed_len=4)
        with pytest.raises(PipelineError):
            BowtieConfig(max_mismatches=-1)

    def test_header_lists_contigs(self, index):
        header = index.header()
        assert any("SN:c1" in h for h in header)
        assert any("SN:c2" in h for h in header)


class TestSeedCoordinatesUnderN:
    """An ``N`` drops the seed windows covering it and must shift no other
    seed: coordinates are window starts, not ranks among clean windows."""

    @pytest.fixture(scope="class")
    def contig(self):
        import random

        rng = random.Random(7)
        return "".join(rng.choice("ACGT") for _ in range(400))

    def _align(self, read_seq, contig_seq):
        reads, contigs = [SeqRecord("r", read_seq)], [Contig("c", contig_seq)]
        (rec,) = bowtie_align(reads, contigs, BowtieConfig())
        assert rec == reference_align(reads, contigs, BowtieConfig())[1][0]
        return rec

    @pytest.mark.parametrize("n_at", [5, 30])
    def test_read_with_n_maps_with_one_mismatch(self, contig, n_at):
        read = contig[100:175]
        rec = self._align(read[:n_at] + "N" + read[n_at + 1 :], contig)
        assert (rec.rname, rec.pos, rec.nm) == ("c", 101, 1)

    def test_contig_with_n_upstream_keeps_downstream_reads(self, contig):
        rec = self._align(contig[100:175], contig[:50] + "N" + contig[51:])
        assert (rec.rname, rec.pos, rec.nm) == ("c", 101, 0)


class TestScaffoldPairs:
    def _sam(self, qname, rname, pos, seq="ACGTACGTAC"):
        from repro.seq.sam import SamRecord

        return SamRecord(qname, 0, rname, pos, 255, f"{len(seq)}M", seq)

    def test_spanning_pairs_detected(self):
        records = []
        for i in range(2):  # two supporting pairs (min_support=2)
            records.append(self._sam(f"p{i}/1", "c1", 40))
            records.append(self._sam(f"p{i}/2", "c2", 1))
        pairs = scaffold_pairs_from_sam(
            records,
            {"c1": 0, "c2": 1},
            end_window=20,
            contig_lengths={"c1": len(C1), "c2": len(C2)},
        )
        assert pairs == [(0, 1)]

    def test_records_sharing_a_prefix_do_not_span(self):
        # Spanning placements, but no /1 + /2 of one base among them: two
        # records of one bare name, two library-prefixed names and a mate
        # aligned twice each used to count as a supporting pair.
        records = []
        for first, second in (("solo", "solo"), ("lib/a", "lib/b"), ("x/1", "x/1")):
            records += [self._sam(first, "c1", 40), self._sam(second, "c2", 1)]
        kwargs = dict(end_window=20, contig_lengths={"c1": len(C1), "c2": len(C2)})
        assert scaffold_pairs_from_sam(records, {"c1": 0, "c2": 1}, **kwargs) == []
        records += [self._sam("p/2", "c1", 40), self._sam("p/1", "c2", 1)]
        records += [self._sam("q/1", "c2", 1), self._sam("q/2", "c1", 40)]
        assert scaffold_pairs_from_sam(records, {"c1": 0, "c2": 1}, **kwargs) == [(0, 1)]

    def test_single_support_ignored(self):
        records = [self._sam("p0/1", "c1", 40), self._sam("p0/2", "c2", 1)]
        pairs = scaffold_pairs_from_sam(
            records,
            {"c1": 0, "c2": 1},
            end_window=20,
            contig_lengths={"c1": len(C1), "c2": len(C2)},
        )
        assert pairs == []

    def test_same_contig_pairs_ignored(self):
        records = []
        for i in range(3):
            records.append(self._sam(f"p{i}/1", "c1", 1))
            records.append(self._sam(f"p{i}/2", "c1", 30))
        assert scaffold_pairs_from_sam(records, {"c1": 0}, contig_lengths={"c1": len(C1)}) == []

    def test_mid_contig_mates_ignored(self):
        # Mates far from both contig ends do not scaffold.
        long1, long2 = "A" * 2000, "C" * 2000
        records = []
        for i in range(3):
            records.append(self._sam(f"p{i}/1", "c1", 900))
            records.append(self._sam(f"p{i}/2", "c2", 900))
        pairs = scaffold_pairs_from_sam(
            records,
            {"c1": 0, "c2": 1},
            end_window=300,
            contig_lengths={"c1": 2000, "c2": 2000},
        )
        assert pairs == []

    def test_mates_join_over_mapped_records_only(self):
        """An unmapped copy of a mate name does not repeat it: the mapped
        copy still pairs, so both pairs count."""
        from repro.seq.sam import FLAG_UNMAPPED, SamRecord

        records = [SamRecord("p0/1", FLAG_UNMAPPED, "*", 0, 0, "*", "ACGT")]
        for i in range(2):
            records += [self._sam(f"p{i}/1", "c1", 40), self._sam(f"p{i}/2", "c2", 1)]
        kwargs = dict(end_window=20, contig_lengths={"c1": len(C1), "c2": len(C2)})
        assert scaffold_pairs_from_sam(records, {"c1": 0, "c2": 1}, **kwargs) == [(0, 1)]
        records.append(self._sam("p0/1", "c1", 40))  # a mapped repeat pairs nothing
        assert scaffold_pairs_from_sam(records, {"c1": 0, "c2": 1}, **kwargs) == []

    def test_unmapped_records_skipped(self):
        from repro.seq.sam import FLAG_UNMAPPED, SamRecord

        records = [SamRecord("p0/1", FLAG_UNMAPPED, "*", 0, 0, "*", "ACGT")]
        assert scaffold_pairs_from_sam(records, {}, contig_lengths={}) == []
