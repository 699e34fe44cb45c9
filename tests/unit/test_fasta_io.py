"""Unit tests for FASTA reading and writing."""

import pytest

from repro.errors import FastaFormatError
from repro.seq.fasta import iter_fasta, parse_fasta, read_fasta, write_fasta
from repro.seq.records import SeqRecord


class TestParse:
    def test_single_record(self):
        recs = list(parse_fasta([">a desc here", "ACGT"]))
        assert recs == [SeqRecord("a", "ACGT", "desc here")]

    def test_multiline_sequence(self):
        recs = list(parse_fasta([">a", "ACGT", "TTGG"]))
        assert recs[0].seq == "ACGTTTGG"

    def test_multiple_records(self):
        recs = list(parse_fasta([">a", "AC", ">b", "GT"]))
        assert [r.name for r in recs] == ["a", "b"]

    def test_blank_lines_skipped(self):
        recs = list(parse_fasta([">a", "", "AC", "", ">b", "GT"]))
        assert len(recs) == 2

    def test_empty_header_rejected(self):
        with pytest.raises(FastaFormatError):
            list(parse_fasta([">", "ACGT"]))

    def test_data_before_header_rejected(self):
        with pytest.raises(FastaFormatError):
            list(parse_fasta(["ACGT"]))

    def test_record_without_sequence_rejected(self):
        with pytest.raises(FastaFormatError):
            list(parse_fasta([">a", ">b", "ACGT"]))

    def test_whitespace_stripped(self):
        recs = list(parse_fasta([">a", "  ACGT  "]))
        assert recs[0].seq == "ACGT"


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        records = [SeqRecord(f"r{i}", "ACGT" * (i + 1), f"n={i}") for i in range(5)]
        path = tmp_path / "x.fasta"
        assert write_fasta(path, records) == 5
        back = read_fasta(path)
        assert back == records

    def test_line_wrapping(self, tmp_path):
        path = tmp_path / "x.fasta"
        write_fasta(path, [SeqRecord("a", "A" * 130)], width=60)
        lines = path.read_text().splitlines()
        assert lines[0] == ">a"
        assert [len(l) for l in lines[1:]] == [60, 60, 10]

    def test_bad_width_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_fasta(tmp_path / "x.fasta", [], width=0)

    def test_iter_streams(self, tmp_path):
        path = tmp_path / "x.fasta"
        write_fasta(path, [SeqRecord("a", "ACGT"), SeqRecord("b", "GGCC")])
        it = iter_fasta(path)
        assert next(it).name == "a"
        assert next(it).name == "b"
