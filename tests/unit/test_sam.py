"""Unit tests for SAM records, the header and the test oracle's reader
(lines written by the per-record oracle ``tests/reference_sam.py``)."""

import pytest

from repro.errors import SequenceError
from repro.seq.sam import FLAG_REVERSE, FLAG_UNMAPPED, SamRecord, sam_header
from tests.reference_sam import parse_sam_line, read_sam, sam_line, write_sam


def rec(name="r1", flag=0, rname="c1", pos=5, nm=-1):
    return SamRecord(name, flag, rname, pos, 255, "10M", "ACGTACGTAC", nm=nm)


class TestRecord:
    def test_roundtrip_line(self):
        r = rec(nm=2)
        assert parse_sam_line(sam_line(r)) == r

    def test_roundtrip_without_nm(self):
        r = rec()
        line = sam_line(r)
        assert "NM:i:" not in line
        assert parse_sam_line(line) == r

    def test_flags(self):
        assert rec(flag=FLAG_UNMAPPED).is_unmapped
        assert not rec(flag=FLAG_REVERSE).is_unmapped
        assert not rec().is_unmapped

    def test_negative_pos_rejected(self):
        with pytest.raises(SequenceError):
            SamRecord("r", 0, "c", -1, 0, "*", "A")

    def test_malformed_line_rejected(self):
        with pytest.raises(SequenceError):
            parse_sam_line("too\tfew\tfields")


class TestHeader:
    def test_sq_lines(self):
        header = sam_header([("c1", 100), ("c2", 50)])
        assert header[0].startswith("@HD")
        assert "@SQ\tSN:c1\tLN:100" in header
        assert "@SQ\tSN:c2\tLN:50" in header


class TestIO:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "x.sam"
        records = [rec(f"r{i}", pos=i + 1) for i in range(4)]
        n = write_sam(path, records, sam_header([("c1", 100)]))
        assert n == 4
        assert list(read_sam(path)) == records

    def test_read_skips_header(self, tmp_path):
        path = tmp_path / "x.sam"
        write_sam(path, [rec()], sam_header([("c1", 100)]))
        assert len(list(read_sam(path))) == 1
