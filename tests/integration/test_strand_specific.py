"""Integration tests for the strand-specific library mode."""

import numpy as np
import pytest

from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import ParallelTrinityConfig
from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import kmer_array
from repro.seq.records import SeqRecord
from repro.simdata.transcriptome import generate_transcriptome
from repro.trinity import TrinityConfig, TrinityPipeline

STRANDED = TrinityConfig(seed=0, strand_specific=True)


def forward_reads(txome, read_len=75, stride=7):
    reads = []
    for iso in txome.isoforms:
        for start in range(0, max(1, len(iso.seq) - read_len), stride):
            reads.append(SeqRecord(f"r{len(reads)}", iso.seq[start : start + read_len]))
    return reads


@pytest.fixture(scope="module")
def txome():
    return generate_transcriptome(3, seed=2)


class TestStrandSpecific:
    def test_contigs_on_forward_strand(self, txome):
        reads = forward_reads(txome)
        res = TrinityPipeline(TrinityConfig(seed=0, strand_specific=True)).run(reads)
        for c in res.contigs:
            assert any(c.seq in iso.seq for iso in txome.isoforms), (
                "strand-specific contig must lie on the forward strand"
            )

    def test_default_mode_may_flip_strands(self, txome):
        reads = forward_reads(txome)
        res = TrinityPipeline(TrinityConfig(seed=0, strand_specific=False)).run(reads)
        # Canonical counting loses strand: contigs match fwd OR rc.
        for c in res.contigs:
            assert any(
                c.seq in iso.seq or c.seq in reverse_complement(iso.seq)
                for iso in txome.isoforms
            )

    def test_antisense_kept_apart(self, txome):
        """A forward and an antisense transcript must not share k-mer
        counts in strand-specific mode."""
        from repro.trinity.jellyfish import jellyfish_count

        iso = txome.isoforms[0]
        fwd = [SeqRecord("f", iso.seq)]
        rev = [SeqRecord("r", reverse_complement(iso.seq))]
        ss_f = jellyfish_count(fwd, 25, canonical=False)
        assert not ss_f.canonical
        ss_r = jellyfish_count(rev, 25, canonical=False)
        assert not set(ss_f.codes.tolist()) & set(ss_r.codes.tolist())
        default_f = jellyfish_count(fwd, 25, canonical=True)
        default_r = jellyfish_count(rev, 25, canonical=True)
        assert set(default_f.codes.tolist()) == set(default_r.codes.tolist())


def solid_windows(reads, result) -> int:
    """The routed reads' k-windows whose k-mer, as read, the solid table
    holds: what QuantifyGraph threads from a strand-specific library."""
    routed = [a.read_index for a in result.assignments if a.component >= 0]
    codes = np.concatenate([kmer_array(reads[i].seq, result.counts.k) for i in routed])
    return int(np.count_nonzero(result.counts.contains(codes)))


def read_edge_weight(result) -> float:
    return sum(q.read_edge_weight for q in result.quants.values())


def file_bytes(result):
    return {key: path.read_bytes() for key, path in sorted(result.files.items())}


class TestStrandSpecificBackEnd:
    """QuantifyGraph looks read k-mers up in the solid table as the table
    stores them: as read in a strand-specific table, not canonicalised."""

    @pytest.mark.timeout(300)
    def test_serial_and_driver_thread_every_solid_window(self, txome, tmp_path):
        reads = forward_reads(txome)
        serial = TrinityPipeline(STRANDED).run(reads, workdir=tmp_path / "serial").outputs
        assert not serial.counts.canonical
        want = solid_windows(reads, serial)
        assert read_edge_weight(serial) == want == 22664
        driver = ParallelTrinityDriver(ParallelTrinityConfig(trinity=STRANDED, nprocs=3))
        hybrid = driver.run(reads, workdir=tmp_path / "hybrid").outputs
        assert not hybrid.counts.canonical
        assert read_edge_weight(hybrid) == want
        assert file_bytes(hybrid) == file_bytes(serial) and len(serial.files) == 5

    @pytest.mark.timeout(300)
    def test_checkpoint_restart_keeps_the_strand_mode(self, txome, tmp_path):
        # The back end's checkpoint is dropped, so the restart recomputes
        # it from the unpickled solid table: its mode must have survived.
        reads = forward_reads(txome)
        driver = ParallelTrinityDriver(ParallelTrinityConfig(trinity=STRANDED, nprocs=3))
        ckpt, wd = tmp_path / "ckpts", tmp_path / "wd"
        cold = driver.run(reads, workdir=wd, checkpoint_dir=ckpt).outputs
        cold_bytes = file_bytes(cold)
        (ckpt / "mpi_chrysalis_backend.ckpt.pkl").unlink()
        (wd / "Trinity.fasta").unlink()
        warm = driver.run(reads, workdir=wd, checkpoint_dir=ckpt)
        assert warm.metrics["checkpoint.restores"] == 5.0
        assert not warm.outputs.counts.canonical and warm.outputs.counts == cold.counts
        assert read_edge_weight(warm.outputs) == solid_windows(reads, cold) == 22664
        assert file_bytes(warm.outputs) == cold_bytes
