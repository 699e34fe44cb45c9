"""Unit tests for the Inchworm successor table and the component kernel:
shared tie-break helper, filtered-table coverage, the probe and the rows
against direct lookups, byte identity with the per-step oracle at every
length cap, and the thread-clock accounting."""

import time

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.parallel.component_stage import lpt_assign
from repro.parallel.mpi_inchworm import _component_setup
from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import canonical_code, encode_kmer, revcomp_codes
from repro.seq.records import SeqRecord
from repro.trinity.inchworm import (
    InchwormConfig,
    _seed_order,
    extension_candidates,
    inchworm_assemble,
    inchworm_assemble_components,
    keyed_contigs,
    neighbours,
    preference_rows,
    tie_break_code,
    tie_break_codes,
    walk,
)
from repro.trinity.jellyfish import JellyfishCounts, jellyfish_count
from tests import reference_inchworm
from tests.inchworm_kernel import assemble_components


def counts_for(*seqs, k=7):
    return jellyfish_count([SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)], k)


SRC1 = "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCATAGCCATTGA"
SRC2 = "GGCATGCATTTGGCCAATGGCATCCAGTAGGACCTTAGCGGATCCA"
SRC3 = "TTGACCGTAGGCTAACCGTTAGGCCTATGCGATCAGGACCATTGCA"


class TestTieBreakHelper:
    """Satellite fix: one tie-break definition for scalar and batch."""

    def test_scalar_matches_vectorized_random(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(0, 2 ** 63, size=500, dtype=np.uint64)
        for salt in (0, 1, 0xDEADBEEF, int(rng.integers(0, 2 ** 62))):
            vec = tie_break_codes(codes, salt)
            scal = [tie_break_code(int(c), salt) for c in codes.tolist()]
            assert vec.tolist() == scal

    def test_uint64_wraparound_semantics(self):
        # A code large enough that unbounded-int multiplication diverges
        # from uint64 wraparound unless both sides mask identically.
        big = (1 << 64) - 1
        assert tie_break_code(big, 12345) == int(
            tie_break_codes(np.array([big], dtype=np.uint64), 12345)[0]
        )

    def test_salt_changes_order(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 2 ** 62, size=64, dtype=np.uint64)
        a = tie_break_codes(codes, 17)
        b = tie_break_codes(codes, 0xFEEDFACE)
        assert (a != b).any()
        assert np.argsort(a).tolist() != np.argsort(b).tolist()


class TestCoverageUsesFilteredTable:
    """Satellite fix: coverage must read the same filtered table that
    greedy extension ran on."""

    def test_noncanonical_alias_does_not_leak_unfiltered_count(self):
        # Malformed-on-purpose table: a directed (non-canonical) code F
        # with count 5 and its canonical partner C with count 1.  With
        # min_kmer_count=2 the filtered table keeps only F, so extension
        # seeds from F; coverage must be F's filtered count (5.0) — the
        # old code re-canonicalised the contig against the *unfiltered*
        # table and read C's count (1.0) instead.
        k = 5
        f_code = encode_kmer("TTTTT")
        c_code = canonical_code(f_code, k)  # AAAAA = 0
        assert c_code != f_code
        counts = JellyfishCounts(
            k=k,
            canonical=True,
            index=KmerCounter.from_dict({f_code: 5, c_code: 1}, k),
        )
        cfg = InchwormConfig(min_kmer_count=2, min_contig_length=1)
        contigs = inchworm_assemble(counts, cfg)
        assert len(contigs) == 1
        assert contigs[0].coverage == pytest.approx(5.0)

    def test_threaded_engine_agrees(self):
        k = 5
        f_code = encode_kmer("TTTTT")
        c_code = canonical_code(f_code, k)
        counts = JellyfishCounts(
            k=k,
            canonical=True,
            index=KmerCounter.from_dict({f_code: 5, c_code: 1}, k),
        )
        cfg = InchwormConfig(min_kmer_count=2, min_contig_length=1)
        res = assemble_components(counts, cfg)
        assert [cov for _key, _seq, cov in res.keyed] == [pytest.approx(5.0)]


def _triples(contigs):
    return [(c.name, c.seq, repr(c.coverage)) for c in contigs]


class TestBatchedKernel:
    def test_probe_matches_table(self):
        counts = counts_for(SRC1, SRC1, SRC2, k=7)
        filtered = counts.index.filtered(1)
        landing = neighbours(filtered, canonical=True)
        assert landing.shape == (len(filtered), 8) and landing.dtype == np.int32
        # Every landing must equal a direct scalar lookup of the
        # canonicalised candidate, and -1 exactly where that is absent.
        for right, half in ((True, landing[:, :4]), (False, landing[:, 4:])):
            cands = extension_candidates(filtered.codes, 7, right)
            for i in range(len(filtered)):
                for b in range(4):
                    canon = canonical_code(int(cands[i, b]), 7)
                    if half[i, b] < 0:
                        assert filtered.get(canon, 0) == 0
                    else:
                        assert int(filtered.codes[half[i, b]]) == canon
        # Position blocks, empty ones included, stack into the whole table.
        cuts = [0, 3, 3, len(filtered) // 2, len(filtered)]
        blocks = [neighbours(filtered, True, a, b) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(blocks), landing)

    def test_select_respects_blocking(self):
        # With every slot already used no row offers anything: the walk
        # reads the seed's two rows and stops on the bare seed.
        counts = counts_for(SRC1, SRC2, k=7)
        filtered = counts.index.filtered(1)
        queue = np.arange(len(filtered))
        rows = preference_rows(filtered, True, 0, neighbours(filtered), queue)
        assert (rows >= 0).any()
        all_blocked = bytearray(b"\x01" * len(filtered))
        for seed in (0, 5, 2 * len(filtered) - 1):
            assert walk(memoryview(rows.reshape(-1)), all_blocked, 1, seed, 100) == ([seed], 2)

    def test_rows_hold_the_comparator_order(self):
        # Each row against the rule spelled out: present candidates by
        # count descending, directed tie hash ascending, base ascending;
        # the reverse orientation's rows hash the reverse strand's codes.
        counts = counts_for(SRC1, SRC2, SRC3, SRC1, k=7)
        filtered = counts.index.filtered(1)
        queue = _seed_order(filtered, 9)
        rows = preference_rows(filtered, True, 9, neighbours(filtered), queue)
        stored = filtered.codes[queue]
        for o, directed in enumerate((stored, revcomp_codes(stored, 7))):
            for d, right in enumerate((True, False)):
                cands = extension_candidates(directed, 7, right).tolist()
                for i, row_cands in enumerate(cands):
                    want = []
                    for b, cand in enumerate(row_cands):
                        canon = canonical_code(cand, 7)
                        if filtered.get(canon, 0) > 0:
                            at = int(np.searchsorted(filtered.codes, np.uint64(canon)))
                            state = int(np.flatnonzero(queue == at)[0]) << 1 | (cand != canon)
                            want.append((-filtered.get(canon), tie_break_code(cand, 9), b, state))
                    got = [e for e in rows[i, o, d].tolist() if e >= 0]
                    assert got == [state for *_key, state in sorted(want)]
                    assert rows[i, o, d].tolist()[len(got):] == [-1] * (4 - len(got))

    def test_zero_count_is_absent(self):
        # A stored count of 0 is no candidate (the oracle skips cnt == 0):
        # neither neighbour may step onto the zero-count AAACA, which
        # still sees both of them and seeds its own contig last.
        k = 5
        kmers = ["AAAAC", "AAACA", "AACAG"]  # ascending codes: positions 0, 1, 2
        table = dict(zip(map(encode_kmer, kmers), (4, 0, 3)))
        counts = JellyfishCounts(k=k, canonical=False, index=KmerCounter.from_dict(table, k))
        cfg = InchwormConfig(min_kmer_count=0, min_contig_length=1)
        filtered = counts.index.filtered(0)
        rows = preference_rows(
            filtered, False, 0, neighbours(filtered, False), np.arange(len(filtered))
        )
        assert rows[:, 0].tolist() == [
            [[-1] * 4, [-1] * 4],
            [[2, -1, -1, -1], [0, -1, -1, -1]],
            [[-1] * 4, [-1] * 4],
        ]
        got = inchworm_assemble(counts, cfg)
        assert _triples(got) == _triples(reference_inchworm.inchworm_assemble(counts, cfg))
        assert [c.seq for c in got] == ["AAAAC", "AACAG", "AAACA"]

    def test_rows_reject_a_landing_outside_the_queue(self):
        counts = counts_for(SRC1, k=7)
        filtered = counts.index.filtered(1)
        landing = neighbours(filtered)
        with pytest.raises(PipelineError, match="whole components"):
            preference_rows(filtered, True, 0, landing, np.arange(len(filtered) // 2))

    @pytest.mark.parametrize("cutoff", [1, 2, 8, 32])
    def test_batched_identical_to_serial(self, cutoff):
        # Both assemblers equal the per-step oracle whatever the length
        # cap: 1 = bare seeds, 2 / 8 = the cap bites in either arm,
        # 32 = nothing is cut.
        counts = counts_for(SRC1, SRC2, SRC3, SRC1, k=7)
        for seed in (0, 3):
            cfg = InchwormConfig(
                min_kmer_count=1, min_contig_length=1, max_contig_length=cutoff, seed=seed
            )
            oracle = reference_inchworm.inchworm_assemble(counts, cfg)
            assert oracle
            assert _triples(inchworm_assemble(counts, cfg)) == _triples(oracle)
            batched = keyed_contigs(assemble_components(counts, cfg).keyed)
            assert _triples(batched) == _triples(oracle)


class TestThreadedDriver:
    def test_single_thread_byte_identical(self):
        counts = counts_for(SRC1, SRC2, SRC3, k=7)
        cfg = InchwormConfig(min_kmer_count=1, seed=2)
        serial = inchworm_assemble(counts, cfg)
        res = assemble_components(counts, cfg)
        assert [(c.name, c.seq, c.coverage) for c in serial] == [
            (c.name, c.seq, c.coverage) for c in keyed_contigs(res.keyed)
        ]

    @pytest.mark.parametrize("n_threads", [2, 4, 8])
    def test_multithread_conserves_kmer_partition(self, n_threads):
        # No canonical k-mer may appear in two contigs and every contig
        # must be made of table k-mers, at any thread count.
        from repro.seq.kmers import canonical_kmers

        counts = counts_for(SRC1, SRC2, SRC3, SRC1, k=7)
        cfg = InchwormConfig(min_kmer_count=1)
        res = assemble_components(counts, cfg, n_threads=n_threads)
        seen = set()
        for _key, seq, _cov in res.keyed:
            for code in canonical_kmers(seq, 7).tolist():
                assert code not in seen
                assert counts.get(code) > 0
                seen.add(code)

    def test_team_timing_populated(self):
        counts = counts_for(SRC1, SRC2, k=7)
        res = assemble_components(counts, InchwormConfig(min_kmer_count=1), n_threads=4)
        assert res.team.n_threads == 4
        assert res.team.makespan > 0
        assert res.thread_clocks.shape == (4,)
        assert res.n_steps > 0

    def test_clocks_cover_the_whole_call(self, smoke_counts):
        # Everything the kernel does — queue setup, row builds, seed scans
        # and emits, not just the walks — reaches a thread clock.
        slow = np.array([3.0, 1.0, 2.0, 1.0])
        assemble_components(smoke_counts, n_threads=4)  # warm the index
        cfg = InchwormConfig()
        filtered = smoke_counts.index.filtered(cfg.min_kmer_count)
        landing, seed_rank, members, costs = _component_setup(
            filtered, cfg, [neighbours(filtered, smoke_counts.canonical)]
        )
        teams = lpt_assign(costs.tolist(), range(len(members)), 4)
        thread_components = [[members[c] for c in team] for team in teams]
        t0 = time.thread_time()
        res = inchworm_assemble_components(
            filtered, smoke_counts.canonical, cfg, landing, seed_rank, thread_components, slow
        )
        measured = time.thread_time() - t0
        assert res.team.serial_time == pytest.approx((res.thread_clocks / slow).sum())
        assert 0.9 * measured <= res.team.serial_time <= measured
        assert res.team.makespan == res.thread_clocks.max()

    def test_straggler_slowdown_stretches_makespan(self):
        counts = counts_for(SRC1, SRC2, SRC3, k=7)
        cfg = InchwormConfig(min_kmer_count=1)
        # One thread holds everything, so the slowed thread is the busy one
        # whatever the host's timing noise.
        fair = assemble_components(counts, cfg)
        slowed = assemble_components(counts, cfg, thread_slowdowns=[8.0])
        # Same output (slowdowns shape timing, never results)...
        assert fair.keyed == slowed.keyed
        # ...but the straggler's share of the work is charged 8x.
        assert slowed.team.makespan == pytest.approx(8.0 * slowed.team.serial_time)
        assert fair.team.makespan == pytest.approx(fair.team.serial_time)

    def test_more_threads_than_components_idle_at_zero(self):
        counts = counts_for(SRC1, SRC2, k=7)
        res = assemble_components(counts, InchwormConfig(min_kmer_count=1), n_threads=8)
        busy = np.flatnonzero(res.thread_clocks)
        assert 0 < busy.size < 8  # fewer components than threads
        assert res.team.makespan == res.thread_clocks.max()

    def test_empty_counts(self):
        counts = counts_for("AAA", k=3)
        res = assemble_components(counts, InchwormConfig(min_kmer_count=10), n_threads=2)
        assert res.keyed == []
        assert res.team.makespan == 0.0
        assert res.thread_clocks.tolist() == [0.0, 0.0]
        assert res.n_steps == 0

    def test_invalid_args_rejected(self):
        counts = counts_for(SRC1, k=7)
        with pytest.raises(PipelineError):
            assemble_components(counts, n_threads=2, thread_slowdowns=[1.0])
        with pytest.raises(PipelineError):
            assemble_components(counts, n_threads=2, thread_slowdowns=[1.0, -2.0])
        filtered = counts.index.filtered(1)
        with pytest.raises(PipelineError):  # no thread at all
            inchworm_assemble_components(
                filtered, True, InchwormConfig(), neighbours(filtered),
                np.arange(len(filtered)), [],
            )


class TestPipelineKnob:
    def test_config_validation(self):
        from repro.trinity.pipeline import TrinityConfig

        with pytest.raises(PipelineError):
            TrinityConfig(inchworm_threads=0)

    @pytest.mark.parametrize(
        "bad",
        [{"min_kmer_count": -1}, {"min_contig_length": -1}, {"max_contig_length": 0}],
    )
    def test_inchworm_config_rejects_values_that_mean_something_else(self, bad):
        with pytest.raises(PipelineError, match=next(iter(bad))):
            InchwormConfig(**bad)

    def test_parallel_config_validation(self):
        from repro.parallel.driver import ParallelTrinityConfig

        from repro.trinity.pipeline import TrinityConfig

        with pytest.raises(PipelineError):
            ParallelTrinityConfig(trinity=TrinityConfig(inchworm_threads=0))

    def test_straggler_mapping(self):
        from repro.mpi.faults import FaultPlan, StragglerFault
        from repro.parallel.driver import _inchworm_slowdown_table

        assert _inchworm_slowdown_table(None, 1, 4) is None
        assert _inchworm_slowdown_table(FaultPlan(), 1, 4) is None
        plan = FaultPlan(stragglers=(StragglerFault(rank=1, slowdown=3.0),))
        assert _inchworm_slowdown_table(plan, 1, 4) == ((1.0, 3.0, 1.0, 1.0),)
        # A straggler beyond the last thread maps to nothing.
        far = FaultPlan(stragglers=(StragglerFault(rank=9, slowdown=3.0),))
        assert _inchworm_slowdown_table(far, 1, 4) is None
