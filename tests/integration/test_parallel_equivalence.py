"""Integration tests: the paper's central validation claim, as exact
invariants — the hybrid MPI+OpenMP Chrysalis computes the same welds,
pairs, components, read assignments and transcripts as the serial code.

(The paper shows statistical equivalence because real Trinity is
nondeterministic across runs; our runs are seed-deterministic, so for a
fixed seed we can assert *exact* equality, which is strictly stronger.)
"""

import pytest

from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import ParallelTrinityConfig
from repro.trinity import TrinityConfig, TrinityPipeline


@pytest.fixture(scope="module")
def serial(smoke_reads):
    return TrinityPipeline(TrinityConfig(seed=1)).run(smoke_reads)


@pytest.fixture(scope="module", params=[1, 2, 3, 5])
def parallel(request, smoke_reads):
    result = ParallelTrinityDriver(
        ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=request.param, nthreads=4)
    ).run(smoke_reads)
    return result, {child.stage: child for child in result.children}


class TestEquivalence:
    def test_same_weld_multiset(self, serial, parallel):
        par, _t = parallel
        key = lambda w: (w.window, w.owner, w.seed_code)
        assert sorted(map(key, serial.gff.welds)) == sorted(map(key, par.gff.welds))

    def test_same_pairs(self, serial, parallel):
        par, _t = parallel
        assert serial.gff.pairs == par.gff.pairs

    def test_same_components(self, serial, parallel):
        par, _t = parallel
        assert serial.gff.components == par.gff.components

    def test_same_assignments(self, serial, parallel):
        par, _t = parallel
        s = [(a.read_index, a.component, a.shared_kmers) for a in serial.assignments]
        p = [(a.read_index, a.component, a.shared_kmers) for a in par.assignments]
        assert s == p

    def test_same_transcripts(self, serial, parallel):
        par, _t = parallel
        assert sorted(t.seq for t in serial.transcripts) == sorted(
            t.seq for t in par.transcripts
        )

    def test_virtual_times_recorded(self, parallel):
        _par, timings = parallel
        assert timings["mpi_graph_from_fasta"].makespan > 0
        assert timings["mpi_reads_to_transcripts"].makespan > 0
        assert timings["mpi_bowtie"].makespan > 0

    def test_rank_returns_consistent(self, parallel):
        par, timings = parallel
        # Every rank returns identical pooled results.
        first = timings["mpi_graph_from_fasta"].outputs[0]
        for r in timings["mpi_graph_from_fasta"].outputs[1:]:
            assert r.pairs == first.pairs
            assert r.components == first.components


class TestThreadedInchwormBytes:
    """Inchworm threads own whole k-mer-graph components, so the whole
    driver stays byte-identical to the serial pipeline with them on."""

    @pytest.mark.timeout(300)
    def test_transcript_fasta_bytes_equal_serial(self, smoke_reads, tmp_path):
        trinity = TrinityConfig(seed=1, inchworm_threads=4)
        serial = TrinityPipeline(trinity).run(smoke_reads, workdir=tmp_path / "serial")
        want = serial.outputs.files["transcripts"].read_bytes()
        assert want
        for nprocs in (1, 3, 8):
            for strategy in ("round_robin", "dynamic"):
                wd = tmp_path / f"{strategy}-{nprocs}"
                par = ParallelTrinityDriver(
                    ParallelTrinityConfig(
                        trinity=trinity, nprocs=nprocs, nthreads=4,
                        butterfly_strategy=strategy,
                    )
                ).run(smoke_reads, workdir=wd)
                assert par.outputs.files["transcripts"].read_bytes() == want
                assert par.metrics["inchworm_threads"] == 4.0


class TestReadsWithN:
    """A library with a few ``N``-bearing reads runs end to end: at the
    parent QuantifyGraph raised on the first routed one (``mask length
    != window count``).  An ``N`` window is a gap, in the serial pipeline
    and on every rank alike, so the bytes still agree."""

    @pytest.mark.timeout(300)
    def test_serial_and_three_ranks_equal_bytes(self, smoke_reads, tmp_path):
        from repro.seq.records import SeqRecord

        reads = list(smoke_reads)
        for i, at in ((3, 0), (10, 30), (17, -1), (24, 40), (31, 12)):
            seq = reads[i].seq
            at %= len(seq)
            reads[i] = SeqRecord(reads[i].name, seq[:at] + "N" + seq[at + 1 :])
        trinity = TrinityConfig(seed=1)
        serial = TrinityPipeline(trinity).run(reads, workdir=tmp_path / "serial")
        routed = {a.read_index for a in serial.outputs.assignments if a.component >= 0}
        assert routed & {3, 10, 17, 24, 31}  # QuantifyGraph saw an N read
        assert not any("N" in t.seq for t in serial.outputs.transcripts)
        want = serial.outputs.files["transcripts"].read_bytes()
        assert want
        par = ParallelTrinityDriver(
            ParallelTrinityConfig(trinity=trinity, nprocs=3, nthreads=4)
        ).run(reads, workdir=tmp_path / "par")
        assert par.outputs.files["transcripts"].read_bytes() == want
        assert {c: (q.n_reads, q.read_edge_weight) for c, q in par.outputs.quants.items()} == {
            c: (q.n_reads, q.read_edge_weight) for c, q in serial.outputs.quants.items()
        }


class TestPairSteps:
    """Scaffold support and pair reconciliation run inside Bowtie and the
    back end; the driver writes what the serial pipeline writes."""

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("scaffolds", [True, False])
    def test_files_are_the_serial_runs(self, smoke_reads, tmp_path, scaffolds):
        """The same file keys — no ``bowtie_sam`` when the serial pipeline
        runs no Bowtie — and the same bytes in each."""
        trinity = TrinityConfig(seed=1, use_bowtie_scaffolds=scaffolds)
        serial = TrinityPipeline(trinity).run(smoke_reads, workdir=tmp_path / "serial")
        par = ParallelTrinityDriver(
            ParallelTrinityConfig(trinity=trinity, nprocs=3, nthreads=4)
        ).run(smoke_reads, workdir=tmp_path / "par")
        want, got = serial.outputs.files, par.outputs.files
        assert sorted(got) == sorted(want)
        assert ("bowtie_sam" in got) == scaffolds
        assert {k: p.read_bytes() for k, p in got.items()} == {
            k: p.read_bytes() for k, p in want.items()
        }
        assert len(par.children) == 5 + scaffolds

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("names", ["single-end", "malformed"])
    def test_odd_mate_names_equal_serial_bytes(self, smoke_reads, tmp_path, names):
        """Single-end names (no mate suffix) and malformed ones — a
        repeated ``/1``, lone ``/2``s, ``lib/a``-style and bare ``/1``
        names — give the serial ``Trinity.fasta`` at 1, 3 and 8 ranks."""
        from repro.seq.records import SeqRecord

        def rename(i, name):
            if names == "single-end":
                return f"solo{i}"
            return {0: "/1", 1: "/2", 2: "lib/a", 3: name.replace("/1", "/2")}.get(i % 11, name)

        reads = [SeqRecord(rename(i, r.name), r.seq) for i, r in enumerate(smoke_reads)]
        trinity = TrinityConfig(seed=1)
        want = (
            TrinityPipeline(trinity).run(reads, workdir=tmp_path / "serial")
            .outputs.files["transcripts"].read_bytes()
        )
        for nprocs in (1, 3, 8):
            par = ParallelTrinityDriver(
                ParallelTrinityConfig(trinity=trinity, nprocs=nprocs, nthreads=4)
            ).run(reads, workdir=tmp_path / f"par{nprocs}")
            assert par.outputs.files["transcripts"].read_bytes() == want, nprocs
