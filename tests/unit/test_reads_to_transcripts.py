"""Unit tests for ReadsToTranscripts (streaming read assignment)."""

import random

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.components import build_components
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadAssignment,
    ReadsToTranscriptsConfig,
    build_kmer_map,
    reads_to_transcripts,
    stream_chunks,
)
from tests.helpers import assign_reads_batched
from tests.reference_rtt import (
    assign_read,
    assignment_line,
    parse_assignment,
    write_assignments,
)

K = 9
SRC_A = "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCAT"
SRC_B = "TTGACCGTAGGCTAACCGTTAGGCCTATGCGATCAGG"


@pytest.fixture
def setup():
    contigs = [Contig("A", SRC_A), Contig("B", SRC_B)]
    components = build_components(2, [])
    cfg = ReadsToTranscriptsConfig(k=K, max_mem_reads=3)
    kmer_map = build_kmer_map(contigs, components, K)
    return contigs, components, cfg, kmer_map


class TestKmerMap:
    def test_maps_to_owning_component(self, setup):
        _c, _comps, _cfg, kmer_map = setup
        from repro.seq.kmers import canonical_kmers

        for code in canonical_kmers(SRC_A, K).tolist():
            assert kmer_map.get(code, -1) == 0
        for code in canonical_kmers(SRC_B, K).tolist():
            assert kmer_map.get(code, -1) == 1

    def test_conflict_resolves_to_smallest(self):
        shared = "ACGTTGCAGCA"
        contigs = [Contig("A", shared), Contig("B", shared)]
        comps = build_components(2, [])
        kmer_map = build_kmer_map(contigs, comps, K)
        assert set(kmer_map.values.tolist()) == {0}


class TestAssignRead:
    def test_assigns_to_matching_component(self, setup):
        _c, _comps, cfg, kmer_map = setup
        read = SRC_A[3:25]
        a = assign_read(0, SeqRecord("r", read), kmer_map, cfg)
        assert a.component == 0
        assert a.shared_kmers == len(read) - K + 1

    def test_reverse_complement_read_assigned(self, setup):
        _c, _comps, cfg, kmer_map = setup
        a = assign_read(0, SeqRecord("r", reverse_complement(SRC_B[5:30])), kmer_map, cfg)
        assert a.component == 1

    def test_unmatched_read_unassigned(self, setup):
        _c, _comps, cfg, kmer_map = setup
        a = assign_read(0, SeqRecord("r", "A" * 30), kmer_map, cfg)
        assert a.component == -1
        assert a.shared_kmers == 0

    def test_short_read_unassigned(self, setup):
        _c, _comps, cfg, kmer_map = setup
        a = assign_read(0, SeqRecord("r", "ACGT"), kmer_map, cfg)
        assert a.component == -1

    def test_region_tracks_contributing_span(self, setup):
        _c, _comps, cfg, kmer_map = setup
        # read: 10 junk bases + 15 real bases (>k) => region starts at 10
        junk = "A" * 10
        read = junk + SRC_A[:15]
        a = assign_read(0, SeqRecord("r", read), kmer_map, cfg)
        assert a.component == 0
        assert a.region_start == 10
        assert a.region_end == len(read)

    def test_majority_wins(self, setup):
        _c, _comps, cfg, kmer_map = setup
        read = SRC_A[:12] + SRC_B[:20]  # more B k-mers than A
        a = assign_read(0, SeqRecord("r", read), kmer_map, cfg)
        assert a.component == 1


class TestStreaming:
    def test_chunking(self):
        reads = [SeqRecord(f"r{i}", "ACGT") for i in range(7)]
        chunks = list(stream_chunks(reads, 3))
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert chunks[1][0][0] == 3  # global indices preserved

    def test_driver_assigns_all(self, setup):
        contigs, comps, cfg, _m = setup
        reads = [SeqRecord(f"r{i}", SRC_A[i : i + 20]) for i in range(5)]
        out = reads_to_transcripts(reads, contigs, comps, cfg)
        assert len(out) == 5
        assert all(a.component == 0 for a in out)
        assert [a.read_index for a in out] == list(range(5))

    def test_invalid_max_mem_reads(self):
        with pytest.raises(PipelineError):
            ReadsToTranscriptsConfig(max_mem_reads=0)


def read_assignments(path):
    return [parse_assignment(line) for line in path.read_text().splitlines()]


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.tsv"
        assignments = [
            ReadAssignment(0, "r0", 2, 5, 1, 20),
            ReadAssignment(1, "r1", -1, 0, 0, 0),
        ]
        assert write_assignments(path, assignments) == 2
        assert read_assignments(path) == assignments

    def test_malformed_line_rejected(self):
        with pytest.raises(PipelineError):
            parse_assignment("1\t2\t3")

    def test_driver_writes_file(self, setup, tmp_path):
        contigs, comps, cfg, _m = setup
        reads = [SeqRecord("r0", SRC_A[:20])]
        out_path = tmp_path / "assignments.tsv"
        result = reads_to_transcripts(reads, contigs, comps, cfg, out_path=out_path)
        assert read_assignments(out_path) == result


class TestBatchedEquivalence:
    """assign_reads_batched must be byte-identical to mapping the per-read
    oracle ``tests/reference_rtt.assign_read``."""

    def _check(self, contigs, reads, cfg):
        comps = build_components(len(contigs), [])
        kmer_map = build_kmer_map(contigs, comps, cfg.k)
        chunk = list(enumerate(reads))
        got = assign_reads_batched(chunk, kmer_map, cfg)
        want = [assign_read(i, r, kmer_map, cfg) for i, r in chunk]
        assert list(map(assignment_line, got)) == list(map(assignment_line, want))
        return got

    def test_tie_goes_to_smallest_component(self):
        shared = "ACGTTGCAGCATT"
        contigs = [Contig("A", shared + "AAAAA"), Contig("B", shared + "CCCCC")]
        # a read of only shared k-mers ties A and B -> must pick component 0
        got = self._check(contigs, [SeqRecord("r", shared)], ReadsToTranscriptsConfig(k=K))
        assert got[0].component == 0

    def test_tie_of_distinct_kmers_goes_to_smallest_component(self):
        # Three k-mers of each contig and none shared: a real tie between
        # two segments, whichever side of the read each lies on.
        contigs = [Contig("A", SRC_A), Contig("B", SRC_B)]
        a, b = SRC_A[-(K + 2) :], SRC_B[: K + 2]
        reads = [SeqRecord("ab", a + b), SeqRecord("ba", b + a), SeqRecord("bb", SRC_B[5:25])]
        got = self._check(contigs, reads, ReadsToTranscriptsConfig(k=K))
        assert [(r.component, r.shared_kmers) for r in got] == [(0, 3), (0, 3), (1, 12)]

    def test_non_acgt_reads(self):
        contigs = [Contig("A", SRC_A), Contig("B", SRC_B)]
        reads = [
            SeqRecord("r0", SRC_A[:6] + "N" + SRC_A[6:22]),
            SeqRecord("r1", "N" * 20),
            SeqRecord("r2", SRC_B[2:14] + "NN" + SRC_B[14:30]),
        ]
        self._check(contigs, reads, ReadsToTranscriptsConfig(k=K))

    def test_reads_shorter_than_k(self):
        contigs = [Contig("A", SRC_A)]
        reads = [SeqRecord("r0", ""), SeqRecord("r1", "ACGT"), SeqRecord("r2", SRC_A[:K - 1])]
        got = self._check(contigs, reads, ReadsToTranscriptsConfig(k=K))
        assert all(a.component == -1 for a in got)

    def test_min_shared_rejection(self):
        contigs = [Contig("A", SRC_A)]
        reads = [SeqRecord("r", SRC_A[:K] + "G" * 12)]  # exactly one shared k-mer
        got = self._check(
            contigs, reads, ReadsToTranscriptsConfig(k=K, min_shared_kmers=2)
        )
        assert got[0].component == -1
        got = self._check(
            contigs, reads, ReadsToTranscriptsConfig(k=K, min_shared_kmers=1)
        )
        assert got[0].component == 0

    def test_empty_chunk(self):
        cfg = ReadsToTranscriptsConfig(k=K)
        kmer_map = build_kmer_map([Contig("A", SRC_A)], build_components(1, []), K)
        assert assign_reads_batched([], kmer_map, cfg) == []

    def test_randomized_reads(self):
        rng = random.Random(13)
        bases = "ACGT"
        contigs = [
            Contig(f"c{i}", "".join(rng.choice(bases) for _ in range(rng.randint(K, 50))))
            for i in range(6)
        ]
        reads = []
        for i in range(200):
            kind = rng.random()
            if kind < 0.2:
                seq = "".join(rng.choice(bases) for _ in range(rng.randint(0, K - 1)))
            elif kind < 0.5:
                seq = "".join(rng.choice(bases + "N") for _ in range(rng.randint(K, 60)))
            else:
                src = rng.choice(contigs).seq
                lo = rng.randint(0, max(len(src) - K, 0))
                seq = src[lo : lo + rng.randint(K, 40)]
            reads.append(SeqRecord(f"r{i}", seq))
        for min_shared in (1, 3):
            self._check(contigs, reads, ReadsToTranscriptsConfig(k=K, min_shared_kmers=min_shared))

    def test_lexsort_fallback_branch(self):
        # Force the composite-key guard off with a huge component value.
        from repro.seq.kmer_index import KmerMap

        contigs = [Contig("A", SRC_A)]
        comps = build_components(1, [])
        km = build_kmer_map(contigs, comps, K)
        big = KmerMap(K, km.codes, np.full(km.values.size, 2 ** 21, dtype=np.int64))
        cfg = ReadsToTranscriptsConfig(k=K)
        chunk = [(0, SeqRecord("r", SRC_A[:20]))]
        got = assign_reads_batched(chunk, big, cfg)
        want = [assign_read(0, chunk[0][1], big, cfg)]
        assert list(map(assignment_line, got)) == list(map(assignment_line, want))
        assert got[0].component == 2 ** 21


class TestBuildKmerMap:
    def test_map_contents_match_bruteforce(self):
        from repro.seq.kmers import canonical_kmers

        contigs = [Contig("A", SRC_A), Contig("B", SRC_B), Contig("C", SRC_A[5:30])]
        comps = build_components(3, [(0, 2)])
        km = build_kmer_map(contigs, comps, K)
        comp_of = {m: comp.id for comp in comps for m in comp.members}
        want = {}
        for ci, contig in enumerate(contigs):
            for code in canonical_kmers(contig.seq, K).tolist():
                want[code] = min(want.get(code, comp_of[ci]), comp_of[ci])
        assert dict(zip(km.codes.tolist(), km.values.tolist())) == want

    def test_empty_contigs(self):
        km = build_kmer_map([], [], K)
        assert len(km) == 0
