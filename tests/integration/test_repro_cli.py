"""Integration tests for the top-level repro CLI."""

import pytest

from repro.cli import main
from repro.seq.fasta import read_fasta, write_fasta
from repro.seq.records import SeqRecord


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    assert main(["simulate", "--recipe", "smoke", "--seed", "5", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def assembled(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-asm") / "serial.fasta"
    rc = main(
        ["assemble", "--reads", str(dataset / "smoke.reads.fasta"), "--out", str(out), "--seed", "5"]
    )
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_both_files(self, dataset):
        assert (dataset / "smoke.reads.fasta").exists()
        assert (dataset / "smoke.reference.fasta").exists()

    def test_reference_annotated(self, dataset):
        recs = read_fasta(dataset / "smoke.reference.fasta")
        assert all("gene=" in r.description for r in recs)


class TestAssemble:
    def test_output_fasta_nonempty(self, assembled):
        assert read_fasta(assembled)

    def test_parallel_matches_serial(self, dataset, assembled, tmp_path):
        out = tmp_path / "hybrid.fasta"
        rc = main(
            [
                "assemble",
                "--reads",
                str(dataset / "smoke.reads.fasta"),
                "--out",
                str(out),
                "--seed",
                "5",
                "--nprocs",
                "3",
            ]
        )
        assert rc == 0
        serial = sorted(r.seq for r in read_fasta(assembled))
        hybrid = sorted(r.seq for r in read_fasta(out))
        assert serial == hybrid


class TestReadCase:
    """``assemble`` sanitises its input: a soft-masked (lower-case) base
    is the base it masks, and a character outside ``ACGTN`` is an error."""

    def test_lower_case_reads_assemble_identically(self, dataset, assembled, tmp_path):
        reads = read_fasta(dataset / "smoke.reads.fasta")
        masked = [
            SeqRecord(r.name, r.seq.lower() if i % 2 else r.seq, r.description)
            for i, r in enumerate(reads)
        ]
        assert any(r.seq.islower() for r in masked)
        write_fasta(tmp_path / "masked.fasta", masked)
        out = tmp_path / "masked.out.fasta"
        rc = main(
            ["assemble", "--reads", str(tmp_path / "masked.fasta"), "--out", str(out), "--seed", "5"]
        )
        assert rc == 0
        assert out.read_bytes() == assembled.read_bytes()

    def test_invalid_base_is_an_error(self, tmp_path, capsys):
        write_fasta(tmp_path / "bad.fasta", [SeqRecord("r0", "ACGTACGTXACGT")])
        rc = main(
            ["assemble", "--reads", str(tmp_path / "bad.fasta"), "--out", str(tmp_path / "o.fasta")]
        )
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'X'" in err
        assert not (tmp_path / "o.fasta").exists()


class TestAnalysis:
    def test_validate_self_is_identical(self, assembled, capsys):
        assert main(["validate", "--query", str(assembled), "--target", str(assembled)]) == 0
        out = capsys.readouterr().out
        assert "1.000" in out

    def test_recovery(self, dataset, assembled, capsys):
        rc = main(
            [
                "recovery",
                "--transcripts",
                str(assembled),
                "--reference",
                str(dataset / "smoke.reference.fasta"),
            ]
        )
        assert rc == 0
        assert "full-length" in capsys.readouterr().out

    def test_stats(self, assembled, capsys):
        assert main(["stats", str(assembled)]) == 0
        assert "N50" in capsys.readouterr().out

    def test_experiments_passthrough(self, capsys):
        assert main(["experiments", "fig10"]) == 0
        assert "Figure 10" in capsys.readouterr().out
