"""Unit tests for output merging and the experiment registry."""

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.parallel.merge import cat_files
from repro.seq.fasta import read_fasta, write_fasta
from repro.seq.records import SeqRecord


class TestCatFiles:
    def test_concatenation_order(self, tmp_path):
        parts = []
        for i in range(3):
            p = tmp_path / f"part{i}.txt"
            p.write_text(f"line{i}\n")
            parts.append(p)
        out = tmp_path / "out.txt"
        total = cat_files(out, parts)
        assert out.read_text() == "line0\nline1\nline2\n"
        assert total == len(out.read_bytes())

    def test_missing_trailing_newline_patched(self, tmp_path):
        p1 = tmp_path / "a.txt"
        p1.write_bytes(b"x")
        p2 = tmp_path / "b.txt"
        p2.write_bytes(b"y\n")
        out = tmp_path / "out.txt"
        cat_files(out, [p1, p2])
        assert out.read_text() == "x\ny\n"

    def test_empty_parts(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_bytes(b"")
        out = tmp_path / "out.txt"
        assert cat_files(out, [p]) == 0

    def test_no_parts(self, tmp_path):
        out = tmp_path / "out.fa"
        assert cat_files(out, []) == 0
        assert out.read_bytes() == b""

    def test_fasta_parts_concat_to_the_combined_records(self, tmp_path):
        a = [SeqRecord("a", "ACGT")]
        b = [SeqRecord("b", "GGTT")]
        pa, pb, out = tmp_path / "a.fa", tmp_path / "b.fa", tmp_path / "out.fa"
        write_fasta(pa, a)
        write_fasta(pb, b)
        cat_files(out, [pa, pb])
        assert read_fasta(out) == a + b


class TestRegistry:
    def test_all_figures_registered(self):
        for eid in ["fig02", "fig03", "fig04", "fig05_06", "fig07", "fig08", "fig09", "fig10", "fig11", "headline"]:
            assert eid in EXPERIMENTS

    def test_ablations_registered(self):
        for eid in ["abl-sched", "abl-rtt-io", "abl-merge"]:
            assert eid in EXPERIMENTS

    def test_unknown_raises_with_known_ids(self):
        with pytest.raises(KeyError, match="fig07"):
            get_experiment("fig99")

    def test_loaders_resolve(self):
        for exp in EXPERIMENTS.values():
            assert callable(exp.load())

    def test_run_experiment_returns_renderable(self):
        result = run_experiment("fig10")
        assert "Figure 10" in result.render()
