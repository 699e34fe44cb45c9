"""Unit tests for sequence records."""

import pytest

from repro.errors import SequenceError
from repro.seq.records import Contig, ReadPair, SeqRecord, Transcript


class TestSeqRecord:
    def test_header_joins_description(self):
        assert SeqRecord("a", "ACGT", "x=1").header == "a x=1"

    def test_header_without_description(self):
        assert SeqRecord("a", "ACGT").header == "a"

    def test_len(self):
        assert len(SeqRecord("a", "ACGTA")) == 5

    def test_empty_name_rejected(self):
        with pytest.raises(SequenceError):
            SeqRecord("", "ACGT")


class TestReadPair:
    def test_paired(self):
        pair = ReadPair(SeqRecord("r/1", "AC"), SeqRecord("r/2", "GT"))
        assert pair.is_paired

    def test_single_end(self):
        assert not ReadPair(SeqRecord("r/1", "AC")).is_paired


class TestContigTranscript:
    def test_contig_record_carries_coverage(self):
        c = Contig("c1", "ACGT", coverage=3.5)
        assert "cov=3.50" in c.to_record().description

    def test_contig_record_carries_component(self):
        c = Contig("c1", "ACGT", coverage=1.0, component=7)
        assert "comp=7" in c.to_record().description

    def test_transcript_record(self):
        t = Transcript("t1", "ACGTACGT", component=3)
        rec = t.to_record()
        assert "comp=3" in rec.description
        assert "len=8" in rec.description
