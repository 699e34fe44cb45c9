"""Unit tests for the Inchworm chain table and the queue kernel: shared
tie-break helper, filtered-table coverage, the probe and the table's rows
against direct lookups, chains as slot runs, byte identity with the
per-step oracle at every length cap, and the per-thread seed queues."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.parallel.component_stage import lpt_assign
from repro.parallel.mpi_inchworm import component_setup
from repro.seq.kmers import canonical_code, encode_kmer, revcomp_codes
from repro.seq.records import SeqRecord
from repro.trinity.inchworm import (
    InchwormConfig,
    _seed_order,
    assemble_queue,
    chain_table,
    extension_candidates,
    inchworm_assemble,
    keyed_contigs,
    neighbours,
    probe,
    seed_queues,
    tie_break_codes,
    walk,
)
from repro.trinity.jellyfish import jellyfish_count
from tests import reference_inchworm
from tests.reference_inchworm import tie_break_code
from tests.inchworm_kernel import assemble_components
from tests.helpers import counter_from_dict


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
        # with count 5 and its canonical partner C with count 1.  At a
        # solid threshold of 2 the filtered table keeps only F, so extension
        # seeds from F; coverage must be F's filtered count (5.0) — the
        # old code re-canonicalised the contig against the *unfiltered*
        # table and read C's count (1.0) instead.
        k = 5
        f_code = encode_kmer("TTTTT")
        c_code = canonical_code(f_code, k)  # AAAAA = 0
        assert c_code != f_code
        counts = counter_from_dict({f_code: 5, c_code: 1}, k, canonical=True).filtered(2)
        cfg = InchwormConfig(min_contig_length=1)
        contigs = inchworm_assemble(counts, cfg)
        assert len(contigs) == 1
        assert contigs[0].coverage == pytest.approx(5.0)

    def test_threaded_engine_agrees(self):
        k = 5
        f_code = encode_kmer("TTTTT")
        c_code = canonical_code(f_code, k)
        counts = counter_from_dict({f_code: 5, c_code: 1}, k, canonical=True).filtered(2)
        cfg = InchwormConfig(min_contig_length=1)
        res = assemble_components(counts, cfg)
        assert [cov for _key, _seq, cov in res] == [pytest.approx(5.0)]


def _triples(contigs):
    return [(c.name, c.seq, repr(c.coverage)) for c in contigs]


class TestBatchedKernel:
    def test_probe_matches_table(self):
        counts = counts_for(SRC1, SRC1, SRC2, k=7)
        filtered = counts.filtered(1)
        landing = neighbours(filtered)
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
        blocks = [neighbours(filtered, a, b) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(blocks), landing)

    def test_select_respects_blocking(self):
        # With every slot already used neither a chain nor a row offers
        # anything: the walk stops on the bare seed.
        counts = counts_for(SRC1, SRC2, k=7)
        filtered = counts.filtered(1)
        table = chain_table(filtered, 0, neighbours(filtered), np.arange(len(filtered)))
        assert any(table.row(i, o, d) for i in range(len(filtered)) for o in (0, 1) for d in (0, 1))
        all_blocked = bytearray(b"\x01" * len(filtered))
        for seed in (0, 5, 2 * len(filtered) - 1):
            assert walk(table, all_blocked, seed, 100) == (1, [seed, seed])

    def test_a_branch_free_table_is_one_chain(self):
        # One read with no repeated 8-mer: every k-mer sits in one run of
        # slots, no row is sorted, and a walk from any seed jumps the run
        # each way.
        counts = counts_for(SRC1, k=9)
        filtered = counts.filtered(1)
        n = len(filtered)
        table = chain_table(filtered, 0, neighbours(filtered), np.arange(n))
        assert table.forks == [] and set(table.lo) == {0} and set(table.hi) == {n - 1}
        seed = 7 << 1 | int(table.fwd[7])
        used = bytearray(n)
        used[7] = 1
        length, runs = walk(table, used, seed, 100)  # the seed, one jump right, one left
        assert (length, len(runs)) == (n, 6) and used == bytearray(b"\x01" * n)
        length, runs = walk(table, bytearray(n), seed, 3)  # the cap cuts the first jump
        assert length == 3 and runs[:2] == [seed, seed] and abs(runs[3] - runs[2]) == 2

    @pytest.mark.parametrize("canonical", [True, False])
    def test_tandem_repeats_are_cycles_cut_into_chains(self, canonical):
        # A repeat unit's k-mers are one-candidate rows closing a cycle:
        # the table cuts it alike in both directions, and the walks still
        # equal the per-step oracle at every cap and tie-break seed.
        for unit in ("ACG", "AACGT", "AGCTTC"):
            counts = jellyfish_count([SeqRecord("r", unit * 6)], 5, canonical=canonical)
            for cap in (2, 8, 32):
                for seed in range(3):
                    cfg = InchwormConfig(min_contig_length=1, max_contig_length=cap, seed=seed)
                    oracle = reference_inchworm.inchworm_assemble(counts, cfg)
                    assert _triples(inchworm_assemble(counts, cfg)) == _triples(oracle)

    def test_rows_hold_the_comparator_order(self):
        # Each row against the rule spelled out: present candidates by
        # count descending, directed tie hash ascending, base ascending;
        # the reverse orientation's rows hash the reverse strand's codes.
        counts = counts_for(SRC1, SRC2, SRC3, SRC1, k=7)
        filtered = counts.filtered(1)
        queue = _seed_order(filtered, 9)
        table = chain_table(filtered, 9, neighbours(filtered), queue)
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
                    assert table.row(i, o, d) == [state for *_key, state in sorted(want)]

    def test_zero_count_is_absent(self):
        # A stored count of 0 is no candidate (the oracle skips cnt == 0):
        # neither neighbour may step onto the zero-count AAACA, which
        # still sees both of them and seeds its own contig last.
        k = 5
        kmers = ["AAAAC", "AAACA", "AACAG"]  # ascending codes: positions 0, 1, 2
        table = dict(zip(map(encode_kmer, kmers), (4, 0, 3)))
        counts = counter_from_dict(table, k, canonical=False)
        cfg = InchwormConfig(min_contig_length=1)
        filtered = counts.filtered(0)
        table = chain_table(filtered, 0, neighbours(filtered), np.arange(len(filtered)))
        assert [[table.row(i, 0, d) for d in (0, 1)] for i in range(3)] == [
            [[], []], [[2 << 1], [0]], [[], []],
        ]
        got = inchworm_assemble(counts, cfg)
        assert _triples(got) == _triples(reference_inchworm.inchworm_assemble(counts, cfg))
        assert [c.seq for c in got] == ["AAAAC", "AACAG", "AAACA"]

    def test_rows_reject_a_landing_outside_the_queue(self):
        counts = counts_for(SRC1, k=7)
        filtered = counts.filtered(1)
        landing = neighbours(filtered)
        with pytest.raises(PipelineError, match="whole components"):
            chain_table(filtered, 0, landing, np.arange(len(filtered) // 2))

    @pytest.mark.parametrize("cutoff", [1, 2, 8, 32])
    def test_batched_identical_to_serial(self, cutoff):
        # Both assemblers equal the per-step oracle whatever the length
        # cap: 1 = bare seeds, 2 / 8 = the cap bites in either arm,
        # 32 = nothing is cut.
        counts = counts_for(SRC1, SRC2, SRC3, SRC1, k=7)
        for seed in (0, 3):
            cfg = InchwormConfig(min_contig_length=1, max_contig_length=cutoff, seed=seed)
            oracle = reference_inchworm.inchworm_assemble(counts, cfg)
            assert oracle
            assert _triples(inchworm_assemble(counts, cfg)) == _triples(oracle)
            batched = keyed_contigs(assemble_components(counts, cfg))
            assert _triples(batched) == _triples(oracle)


class TestThreadedDriver:
    def test_single_thread_byte_identical(self):
        counts = counts_for(SRC1, SRC2, SRC3, k=7)
        cfg = InchwormConfig(seed=2)
        serial = inchworm_assemble(counts, cfg)
        res = assemble_components(counts, cfg)
        assert [(c.name, c.seq, c.coverage) for c in serial] == [
            (c.name, c.seq, c.coverage) for c in keyed_contigs(res)
        ]

    @pytest.mark.parametrize("n_threads", [2, 4, 8])
    def test_multithread_conserves_kmer_partition(self, n_threads):
        # No canonical k-mer may appear in two contigs and every contig
        # must be made of table k-mers, at any thread count.
        from repro.seq.kmers import canonical_kmers

        counts = counts_for(SRC1, SRC2, SRC3, SRC1, k=7)
        cfg = InchwormConfig()
        res = assemble_components(counts, cfg, n_threads=n_threads)
        seen = set()
        for _key, seq, _cov in res:
            for code in canonical_kmers(seq, 7).tolist():
                assert code not in seen
                assert counts.get(code) > 0
                seen.add(code)

    @staticmethod
    def queues(counts, n_threads, cfg=InchwormConfig()):
        """The LPT deal of all components to ``n_threads`` threads, queued."""
        filtered = counts
        landing, ids, costs = component_setup(filtered, [probe(filtered)])
        teams = lpt_assign(costs.tolist(), range(len(costs)), n_threads)
        return filtered, landing, ids, teams, seed_queues(filtered, cfg, ids, teams)

    def test_one_queue_per_thread(self):
        # A queue per thread, holding exactly the positions of its
        # components; each busy queue assembles on its own.
        counts = counts_for(SRC1, SRC2, k=7)
        filtered, landing, ids, teams, queues = self.queues(counts, 4)
        assert len(queues) == 4
        for team, queue in zip(teams, queues):
            assert sorted(queue.tolist()) == np.flatnonzero(np.isin(ids, team)).tolist()
        assert sorted(np.concatenate(queues).tolist()) == list(range(len(filtered)))
        cfg = InchwormConfig()
        assert all(
            assemble_queue(filtered, cfg, landing, queue) for queue in queues if queue.size
        )

    def test_more_threads_than_components_leave_queues_empty(self):
        counts = counts_for(SRC1, SRC2, k=7)
        *_setup, queues = self.queues(counts, 8)
        busy = [queue for queue in queues if queue.size]
        assert 0 < len(busy) < 8  # fewer components than threads

    def test_empty_counts(self):
        counts = counts_for("AAA", k=3).filtered(10)
        cfg = InchwormConfig()
        filtered, landing, _ids, _teams, queues = self.queues(counts, 2, cfg)
        assert [queue.size for queue in queues] == [0, 0]
        assert assemble_queue(filtered, cfg, landing, queues[0]) == []
        assert assemble_components(counts, cfg, n_threads=2) == []

    def test_invalid_args_rejected(self):
        counts = counts_for(SRC1, k=7)
        filtered = counts.filtered(1)
        with pytest.raises(PipelineError):  # no thread at all
            seed_queues(filtered, InchwormConfig(), np.arange(len(filtered)), [])


class TestPipelineKnob:
    def test_config_validation(self):
        from repro.trinity.pipeline import TrinityConfig

        with pytest.raises(PipelineError):
            TrinityConfig(inchworm_threads=0)

    @pytest.mark.parametrize(
        "bad",
        [{"min_contig_length": -1}, {"max_contig_length": 0}],
    )
    def test_inchworm_config_rejects_values_that_mean_something_else(self, bad):
        with pytest.raises(PipelineError, match=next(iter(bad))):
            InchwormConfig(**bad)

    def test_parallel_config_validation(self):
        from repro.parallel.driver import ParallelTrinityConfig

        from repro.trinity.pipeline import TrinityConfig

        with pytest.raises(PipelineError):
            ParallelTrinityConfig(trinity=TrinityConfig(inchworm_threads=0))

    def test_stragglers_stay_out_of_the_stage_config(self):
        """A straggler slows its rank's clock only: the Inchworm stage
        config carries no second, per-thread copy of the fault plan."""
        from dataclasses import replace

        from repro.mpi.faults import FaultPlan, StragglerFault
        from repro.parallel.driver import ParallelTrinityConfig
        from repro.trinity.pipeline import TrinityConfig

        cfg = ParallelTrinityConfig(trinity=TrinityConfig(inchworm_threads=4), nprocs=2)
        plan = FaultPlan(stragglers=(StragglerFault(rank=1, slowdown=3.0),))
        assert replace(cfg, faults=plan).inchworm_stage() == cfg.inchworm_stage()
