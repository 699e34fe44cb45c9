"""Integration tests for the three MPI stages run standalone."""

import random
import threading

import pytest

from repro.errors import RankCrash
from repro.mpi import FaultPlan, FlakyIO, SimComm, mpirun
from repro.obs.critical import critical_path
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieStageConfig, mpi_bowtie
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.parallel.mpi_reads_to_transcripts import (
    RttInputs,
    RttStageConfig,
    mpi_reads_to_transcripts,
)
from repro.parallel.recovery import mpirun_with_recovery
from repro.seq.records import Contig, SeqRecord
from repro.trinity.bowtie import BowtieConfig, BowtieIndex, ReadSeeds, align_seeds
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    build_weldmer_index,
    graph_from_fasta,
    shared_seed_array,
)
from repro.trinity.chrysalis.components import Component
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadsToTranscriptsConfig,
    build_kmer_map,
    reads_to_transcripts,
)
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count
from tests.helpers import assign_reads_batched, bowtie_align, sam_records
from tests.reference_rtt import format_assignments, write_assignments
from tests.reference_sam import format_sam, read_sam, sam_line, write_sam


@pytest.fixture(scope="module")
def artefacts(smoke_reads):
    counts = jellyfish_count(smoke_reads, 25).filtered(2)  # the solid table
    contigs = inchworm_assemble(counts, InchwormConfig(seed=1))
    gff = graph_from_fasta(contigs, smoke_reads, GraphFromFastaConfig(k=24))
    return counts, contigs, gff


class TestMpiBowtie:
    def test_matches_single_index_alignment(self, smoke_reads, artefacts):
        _counts, contigs, _gff = artefacts
        serial = bowtie_align(smoke_reads, contigs, BowtieConfig())
        run = mpirun(
            mpi_bowtie, 3,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig()),
        )
        merged = run.outputs[0].records
        assert [sam_line(r) for r in merged] == [sam_line(r) for r in serial]

    def test_writes_parts_and_merged_sam(self, smoke_reads, artefacts, tmp_path):
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_bowtie, 2,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig(), workdir=tmp_path),
        )
        assert (tmp_path / "bowtie.part0.sam").exists()
        assert (tmp_path / "bowtie.part1.sam").exists()
        merged = list(read_sam(tmp_path / "bowtie.sam"))
        assert len(merged) == len(smoke_reads)

    def test_split_time_charged_once(self, smoke_reads, artefacts):
        """The master's split window and its modelled rewrite are charged to
        rank 0 alone; the peers wait for the broadcast."""
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_bowtie, 3,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig()),
            trace=True,
        )
        split = [s for s in run.spans if s.label == "bowtie:pyfasta_split"]
        assert {s.track for s in split} == {"rank 0"}
        assert {s.kind for s in split} == {"compute"}
        rewrite = sum(len(c.seq) for c in contigs) / 200e6
        assert sum(s.duration for s in split) > rewrite


    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_scaffolds_are_the_serial_count(self, smoke_reads, artefacts, nprocs):
        """Scaffold support counted at the mates' owners equals the serial
        count over the SAM, mates joined over mapped reads only: here an
        unmapped copy of a mate's name leaves its pair counting."""
        from repro.trinity.bowtie import scaffold_pairs_from_sam

        _counts, contigs, _gff = artefacts
        rng = random.Random(nprocs)
        a, b = (c.seq for c in sorted(contigs, key=lambda c: -len(c.seq))[:2])
        reads = list(smoke_reads) + [
            SeqRecord("x0/1", "".join(rng.choice("ACGT") for _ in range(60))),
        ]
        for i in range(2):  # two pairs spanning the two longest contigs
            reads += [SeqRecord(f"x{i}/1", a[-60:]), SeqRecord(f"x{i}/2", b[:60])]
        rng.shuffle(reads)
        run = mpirun(
            mpi_bowtie, nprocs,
            BowtieInputs(reads=reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig()),
        )
        records = bowtie_align(reads, contigs, BowtieConfig())
        assert sorted(r.is_unmapped for r in records if r.qname == "x0/1") == [False, True]
        scaffolds = lambda records: scaffold_pairs_from_sam(
            records, {c.name: i for i, c in enumerate(contigs)},
            contig_lengths={c.name: len(c.seq) for c in contigs},
        )
        want = scaffolds(records)
        pair = tuple(sorted(i for i, c in enumerate(contigs) if c.seq in (a, b)))
        assert pair in want
        assert pair not in scaffolds(bowtie_align(smoke_reads, contigs, BowtieConfig()))
        assert all(list(r.scaffolds) == want for r in run.outputs)

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_target_split_partitions_the_work(self, smoke_reads, artefacts, nprocs):
        """Figure 10 as a count: the pieces' seed hits and verified
        candidates sum to the single-index run's, whatever the split —
        and so does their merged SAM."""
        _counts, contigs, _gff = artefacts
        cfg = BowtieConfig()
        whole_index = BowtieIndex(contigs, cfg)
        whole = align_seeds(ReadSeeds.build(smoke_reads, cfg), whole_index)
        assert whole.n_verified > 0
        run = mpirun(
            mpi_bowtie, nprocs,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=cfg),
        )
        assert run.outputs[0].records == bowtie_align(smoke_reads, contigs, cfg)
        for count in ("n_seed_hits", "n_verified"):
            assert sum(r.metrics[count] for r in run.outputs) == getattr(whole, count)
        if nprocs > 1:
            assert max(r.metrics["n_verified"] for r in run.outputs) < whole.n_verified

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_read_blocks_partition_the_reads_and_files_match_serial(
        self, smoke_reads, artefacts, nprocs, tmp_path
    ):
        """Seeds, reduce and render are per read block (block ``r`` of the
        reads is rank ``r``'s), the index per target piece: the merged SAM
        is the serial file byte for byte, part ``r`` is the record oracle's
        text of every read against piece ``r`` alone, and the merge is
        serial on no rank."""
        from repro.parallel.component_stage import lpt_assign

        _counts, contigs, _gff = artefacts
        cfg = BowtieConfig()
        index = BowtieIndex(contigs, cfg)
        serial = bowtie_align(smoke_reads, contigs, cfg)
        write_sam(tmp_path / "serial.sam", serial, index.header())
        run = mpirun(
            mpi_bowtie, nprocs,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=cfg, workdir=tmp_path), trace=True,
        )
        assert (tmp_path / "bowtie.sam").read_bytes() == (tmp_path / "serial.sam").read_bytes()
        seeds = ReadSeeds.build(smoke_reads, cfg)
        lengths = [len(c.seq) for c in contigs]
        pieces = [sorted(p) for p in lpt_assign(lengths, range(len(contigs)), nprocs)]
        for rank, piece in enumerate(pieces):
            alone = [contigs[g] for g in piece]
            want = sam_records(
                smoke_reads, align_seeds(seeds, BowtieIndex(alone, cfg)), [c.name for c in alone]
            )
            assert (tmp_path / f"bowtie.part{rank}.sam").read_bytes() == format_sam(want).encode()
        blocks = [r.metrics["n_block_reads"] for r in run.outputs]
        assert sum(blocks) == len(smoke_reads) and max(blocks) - min(blocks) <= 1
        assert sum(r.metrics["n_rows_routed"] for r in run.outputs) >= len(
            [r for r in serial if not r.is_unmapped]
        )
        assert sum(r.metrics["n_seed_lookups"] for r in run.outputs) >= align_seeds(
            seeds, index
        ).n_seed_lookups
        phases = {(s.label, bool(s.attr("serial"))) for s in run.spans if s.kind == "phase"}
        assert phases == {("bowtie:split", True), ("bowtie:align", False), ("bowtie:merge", False)}
        for rank in range(nprocs):
            (window,) = [
                s for s in run.spans
                if s.kind == "compute" and s.label == "bowtie:merge" and s.track == f"rank {rank}"
            ]
            (phase,) = [
                s for s in run.spans
                if s.kind == "phase" and s.label == "bowtie:merge" and s.track == f"rank {rank}"
            ]
            assert phase.start <= window.start <= window.stop <= phase.stop
        assert critical_path(run).serial_time == pytest.approx(
            max(s.duration for s in run.spans if s.label == "bowtie:split")
        )

    @pytest.mark.timeout(120)
    def test_crash_inside_the_merge_alltoall_recovers_the_sam(
        self, smoke_reads, artefacts, monkeypatch
    ):
        """A rank dies routing its rows to their block owners (its peers
        are parked in the ``alltoall``); the survivors re-split the
        targets, re-cut the reads and return the same records."""
        _counts, contigs, _gff = artefacts
        inputs = BowtieInputs(reads=smoke_reads, contigs=contigs)
        serial = bowtie_align(smoke_reads, contigs, BowtieConfig())
        alltoall, crashed = SimComm.alltoall, []

        def crashing(comm, values):
            if threading.current_thread().name == "simmpi-rank-2" and not crashed:
                crashed.append(comm.rank)
                raise RankCrash("crashed routing rows to their block owners")
            return alltoall(comm, values)

        monkeypatch.setattr(SimComm, "alltoall", crashing)
        rec = mpirun_with_recovery(mpi_bowtie, 8, inputs, BowtieStageConfig())
        assert crashed == [2] and len(rec.outputs) == 7
        assert all(out.records == serial for out in rec.outputs)

    def test_flaky_io_retries_the_same_points(self, smoke_reads, artefacts, tmp_path):
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_bowtie, 3, BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(workdir=tmp_path), trace=True,
            faults=FaultPlan(flaky_io=FlakyIO(rate=1.0, max_consecutive=2), seed=7),
        )
        assert {s.label for s in run.spans if s.label.startswith("fault:retry:")} == {
            "fault:retry:bowtie:pyfasta_split", "fault:retry:bowtie:write_part",
            "fault:retry:bowtie:write_sam",
        }
        assert run.outputs[0].records == bowtie_align(smoke_reads, contigs, BowtieConfig())

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_more_ranks_than_contigs(self, nprocs, tmp_path):
        """Splitting contigs of lengths ``[100, 200, 50]`` eight ways
        leaves five pieces empty."""
        import random

        rng = random.Random(3)
        contigs = [
            Contig(f"c{i}", "".join(rng.choice("ACGT") for _ in range(n)))
            for i, n in enumerate((100, 200, 50))
        ]
        reads = [
            SeqRecord(f"r{i}", c.seq[a : a + 40])
            for i, (c, a) in enumerate((c, a) for c in contigs for a in (0, 5, 10))
        ]
        serial = bowtie_align(reads, contigs, BowtieConfig())
        assert not any(r.is_unmapped for r in serial)
        run = mpirun(
            mpi_bowtie, nprocs,
            BowtieInputs(reads=reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig(), workdir=tmp_path),
        )
        assert all(r.outputs.records == serial for r in run.outputs)
        assert list(read_sam(tmp_path / "bowtie.sam")) == serial
        parts = [list(read_sam(tmp_path / f"bowtie.part{r}.sam")) for r in range(nprocs)]
        # Every read is mapped by exactly the piece holding its contig.
        assert [sum(not p[i].is_unmapped for p in parts) for i in range(len(reads))] == [1] * len(reads)

    @pytest.mark.parametrize("nprocs", [1, 3])
    def test_zero_contigs_and_zero_reads(self, nprocs, artefacts, smoke_reads):
        _counts, contigs, _gff = artefacts
        some_reads = smoke_reads[:20]
        unmapped = mpirun(
            mpi_bowtie, nprocs, BowtieInputs(reads=some_reads, contigs=[]), BowtieStageConfig()
        ).outputs[0].records
        assert unmapped == bowtie_align(some_reads, [], BowtieConfig())
        assert all(r.is_unmapped for r in unmapped)
        nothing = mpirun(
            mpi_bowtie, nprocs, BowtieInputs(reads=[], contigs=contigs), BowtieStageConfig()
        )
        assert nothing.outputs[0].records == []
        assert sum(r.metrics["n_seed_hits"] for r in nothing.outputs) == 0

    def test_read_seeds_built_once_and_charged_to_every_rank(self, smoke_reads, artefacts):
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_bowtie, 4,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig()),
            trace=True,
        )
        seeds = [s for s in run.spans if s.label == "shared:bowtie:read_seeds"]
        assert [s.attr("cached") for s in seeds].count(False) == 1
        assert [s.attr("cached") for s in seeds].count(True) == 3
        charges = [s.duration for s in seeds]
        assert len(charges) == 4 and len(set(charges)) == 1 and charges[0] > 0


class TestMpiGff:
    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_matches_serial(self, smoke_reads, artefacts, nprocs):
        _counts, contigs, gff = artefacts
        run = mpirun(
            mpi_graph_from_fasta, nprocs,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2),
        )
        key = lambda w: (w.owner, w.seed_code, w.left_flank, w.seed, w.right_flank)
        for r in run.outputs:
            # Bit-identical welds: pooling permutes chunk order, so compare
            # under a canonical sort.
            assert sorted(r.welds, key=key) == sorted(gff.welds, key=key)
            assert r.pairs == gff.pairs
            assert r.components == gff.components

    def test_serial_region_time_nprocs_independent(self, smoke_reads, artefacts):
        """What is replicated is built once and charged at single-rank
        cost; the read weldmer scan is sharded and is not serial time.
        Stated as span facts host contention cannot move (``serial_time``
        is a millisecond of k-mer map + weld index + components now, so
        any ratio of two of its measurements is a coin flip)."""
        _counts, contigs, _gff = artefacts
        inputs = GffInputs(contigs=contigs, reads=smoke_reads)
        config = GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2)
        run = mpirun(mpi_graph_from_fasta, 4, inputs, config, trace=True)
        for key in ("gff:setup", "gff:weldmers"):
            charges = [s for s in run.spans if s.label == f"shared:{key}"]
            assert len(charges) == 4 and len({s.track for s in charges}) == 4
            assert len({s.duration for s in charges}) == 1 and charges[0].duration > 0
            assert [s.attr("cached") for s in charges].count(False) == 1
        serial_time = []
        for rank in range(4):
            mine = [s for s in run.spans if s.track == f"rank {rank}"]
            scans = [s for s in mine if s.label == "gff:weldmer_scan"]
            assert len(scans) == 1 and scans[0].kind == "compute"
            # The serial phases are the three replicated builds and nothing else.
            replicated = ("shared:gff:setup", "shared:gff:weld_index", "shared:gff:components")
            serial_time.append(
                sum(s.duration for s in mine if s.kind == "phase" and s.attr("serial"))
            )
            assert serial_time[-1] == pytest.approx(
                sum(s.duration for s in mine if s.label in replicated)
            )
        report = critical_path(run)
        assert report.serial_time == pytest.approx(serial_time[report.critical_rank])
        # Whole-job sanity: splitting the work over 8 ranks must not make
        # the *virtual* makespan grow (it was ~7x at 8 ranks when wall
        # clocks measured other ranks' GIL time).
        one = mpirun(mpi_graph_from_fasta, 1, inputs, config)
        eight = mpirun(mpi_graph_from_fasta, 8, inputs, config)
        assert eight.makespan < 2.5 * one.makespan

    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_scan_counts_at_the_boundary(self, smoke_reads, artefacts, nprocs):
        """Counts that repeat exactly: every read is scanned once, the
        ranks' hits add up to the serial table's, and every rank reports
        the same seed array and pooled table sizes."""
        _counts, contigs, _gff = artefacts
        cfg = GraphFromFastaConfig(k=24)
        shared = shared_seed_array(contigs, cfg)
        table = build_weldmer_index(smoke_reads, shared, cfg)
        assert shared.size > 0 and table
        run = mpirun(
            mpi_graph_from_fasta, nprocs,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=cfg, nthreads=2), trace=True,
        )
        scans = [s for s in run.spans if s.label == "gff:weldmer_scan"]
        assert len(scans) == nprocs
        assert sum(s.attr("reads") for s in scans) == len(smoke_reads)
        assert sum(s.attr("hits") for s in scans) == sum(table.values())
        assert sorted(s.attr("hits") for s in scans) == sorted(
            out.metrics["n_weldmer_hits"] for out in run.outputs
        )
        for out in run.outputs:
            assert out.metrics["n_shared_seeds"] == shared.size
            assert out.metrics["n_weldmers"] == len(table)

    def test_loop_times_positive(self, smoke_reads, artefacts):
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_graph_from_fasta, 2,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2),
        )
        r = run.outputs[0]
        assert r.metrics["phase.loop1_s"] > 0 and r.metrics["phase.loop2_s"] > 0


class TestMpiRtt:
    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_matches_serial(self, smoke_reads, artefacts, nprocs):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        serial = reads_to_transcripts(smoke_reads, contigs, gff.components, cfg)
        run = mpirun(
            mpi_reads_to_transcripts, nprocs,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2),
        )
        for r in run.outputs:
            assert r.assignments == serial

    def test_output_concatenation(self, smoke_reads, artefacts, tmp_path):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        run = mpirun(
            mpi_reads_to_transcripts, 2,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2, workdir=tmp_path),
        )
        out = run.outputs[0].out_path
        assert out is not None and out.exists()
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(smoke_reads)

    @pytest.mark.parametrize("flaky", [False, True], ids=["plain", "flaky"])
    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_files_are_the_record_oracles_text(
        self, smoke_reads, artefacts, tmp_path, nprocs, flaky
    ):
        """Part ``r`` is the record oracle's text of rank ``r``'s chunks
        (chunk ``c`` is rank ``c % nprocs``'s), in read order, and the
        merged file is the parts in rank order — also when every write
        fails twice before it lands."""
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        serial = reads_to_transcripts(smoke_reads, contigs, gff.components, cfg)
        faults = FaultPlan(flaky_io=FlakyIO(rate=1.0, max_consecutive=2), seed=7)
        run = mpirun(
            mpi_reads_to_transcripts, nprocs,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2, workdir=tmp_path),
            trace=True, faults=faults if flaky else None,
        )
        parts = [
            format_assignments(a for a in serial if a.read_index // 50 % nprocs == r).encode()
            for r in range(nprocs)
        ]
        for r, part in enumerate(parts):
            assert (tmp_path / f"readsToComponents.part{r}.out").read_bytes() == part
        assert (tmp_path / "readsToComponents.out").read_bytes() == b"".join(parts)
        retried = {s.label for s in run.spans if s.label.startswith("fault:retry:rtt:")}
        assert ({"fault:retry:rtt:write_part", "fault:retry:rtt:concat"} <= retried) == flaky

    def test_every_rank_holds_full_table(self, smoke_reads, artefacts):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        run = mpirun(
            mpi_reads_to_transcripts, 4,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2),
        )
        for r in run.outputs:
            assert len(r.assignments) == len(smoke_reads)

    @pytest.mark.parametrize("length", [128, 32768])
    def test_rows_at_a_signed_bound_keep_their_values(self, length):
        """Rows cross the wire in the narrowest type that holds them: a
        largest value of exactly 128 or 32768 (one past a signed type's
        top) must come back unwrapped, as the serial kernel's records."""
        rng = random.Random(length)
        contig = Contig("c0", "".join(rng.choice("ACGT") for _ in range(length)))
        # The whole-contig read's region ends at ``length``; at 128 the
        # last read's index is 128 too.
        reads = [SeqRecord("whole", contig.seq)] + [
            SeqRecord(f"r{i}", contig.seq[i : i + 30]) for i in range(min(length, 200))
        ]
        cfg = ReadsToTranscriptsConfig(k=25)
        components = [Component(0, (0,))]
        serial = assign_reads_batched(
            list(enumerate(reads)), build_kmer_map([contig], components, 25), cfg
        )
        assert max(max(a.read_index, a.region_end) for a in serial) == length
        for nprocs in (1, 3):
            run = mpirun(
                mpi_reads_to_transcripts, nprocs,
                RttInputs(reads=reads, contigs=[contig], components=components),
                RttStageConfig(rtt=cfg, nthreads=1),
            )
            assert all(r.assignments == serial for r in run.outputs)


class TestMpiRttSerialEquality:
    """Satellite guard: the batched MPI stage writes byte-identical
    assignment files to the serial streaming driver at every nprocs, and
    survives an injected rank crash unchanged."""

    @pytest.fixture(scope="class")
    def serial_bytes(self, smoke_reads, artefacts, tmp_path_factory):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        path = tmp_path_factory.mktemp("rtt_serial") / "serial.tsv"
        reads_to_transcripts(smoke_reads, contigs, gff.components, cfg, out_path=path)
        return path.read_bytes()

    @pytest.mark.parametrize("nprocs", [1, 3, 8], ids="batched-{}".format)
    def test_file_matches_serial_driver(
        self, smoke_reads, artefacts, tmp_path, serial_bytes, nprocs
    ):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        run = mpirun(
            mpi_reads_to_transcripts, nprocs,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2),
        )
        for rank, r in enumerate(run.outputs):
            path = tmp_path / f"rank{rank}.tsv"
            write_assignments(path, r.assignments)
            assert path.read_bytes() == serial_bytes

    def test_recovery_after_crash_matches_serial(
        self, smoke_reads, artefacts, tmp_path, serial_bytes
    ):
        from repro.mpi import CrashFault, FaultPlan
        from repro.parallel import mpirun_with_recovery

        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        plan = FaultPlan(crashes=(CrashFault(rank=5, phase="rtt:loop"),))
        rec = mpirun_with_recovery(
            mpi_reads_to_transcripts,
            8,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2),
            faults=plan,
        )
        path = tmp_path / "recovered.tsv"
        write_assignments(path, rec.outputs[0].assignments)
        assert path.read_bytes() == serial_bytes
