"""Unit tests for transparent gzip FASTA I/O."""

import gzip

from repro.seq.fasta import open_text, read_fasta, write_fasta
from repro.seq.records import SeqRecord


class TestGzipFasta:
    def test_roundtrip_gz(self, tmp_path):
        records = [SeqRecord("a", "ACGT" * 10), SeqRecord("b", "TTGGCC")]
        path = tmp_path / "x.fasta.gz"
        write_fasta(path, records)
        assert read_fasta(path) == records

    def test_file_is_actually_compressed(self, tmp_path):
        path = tmp_path / "x.fasta.gz"
        write_fasta(path, [SeqRecord("a", "ACGT" * 1000)])
        raw = path.read_bytes()
        assert raw[:2] == b"\x1f\x8b"  # gzip magic
        with gzip.open(path, "rt") as fh:
            assert fh.readline() == ">a\n"

    def test_plain_path_uncompressed(self, tmp_path):
        path = tmp_path / "x.fasta"
        write_fasta(path, [SeqRecord("a", "ACGT")])
        assert path.read_bytes()[:1] == b">"

    def test_open_text_reads_both(self, tmp_path):
        plain = tmp_path / "p.txt"
        plain.write_text("hello\n")
        gz = tmp_path / "g.txt.gz"
        with gzip.open(gz, "wt") as fh:
            fh.write("hello\n")
        for p in (plain, gz):
            with open_text(p) as fh:
                assert fh.read() == "hello\n"
