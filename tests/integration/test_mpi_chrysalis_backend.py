"""Integration tests for the fused Chrysalis back end.

The invariant everything else hangs off: at every rank count, with
either deal strategy, with or without an injected rank crash,
``mpi_chrysalis_backend`` reproduces its serial body — the serial
``fasta_to_debruijn`` + ``quantify_graph`` + ``butterfly_assemble``
chain — *exactly* — the fused per-component chain is the serial code path,
and the merge follows ascending component id regardless of the deal.
"""

import gc
import os
import threading

import pytest

import repro.seq.kmers
from repro.errors import PipelineError, RankCrash
from repro.mpi import CrashFault, FaultPlan, FlakyIO, SimComm, mpirun
from repro.experiments.fig_butterfly import skewed_contigs
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendInputs,
    ChrysalisBackendStageConfig,
    contig_only_inputs,
    estimated_component_cost,
    mpi_chrysalis_backend,
    read_block_units,
    serial_chrysalis_backend,
)
from repro.parallel.recovery import mpirun_with_recovery
from repro.seq.fasta import write_fasta
from repro.trinity import TrinityConfig
from repro.trinity.butterfly import ButterflyConfig, butterfly_assemble
from repro.trinity.chrysalis.debruijn import fasta_to_debruijn
from repro.trinity.chrysalis.graph_from_fasta import graph_from_fasta
from repro.trinity.chrysalis.orient import orient_component
from repro.trinity.chrysalis.reads_to_transcripts import reads_to_transcripts
from repro.trinity.inchworm import inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count

NPROCS = 8


@pytest.fixture(scope="module")
def workload(smoke_reads):
    """Real front-end products (everything the fused stage consumes)."""
    tcfg = TrinityConfig(seed=1)
    counts = jellyfish_count(smoke_reads, tcfg.k).filtered(tcfg.min_kmer_count)
    contigs = inchworm_assemble(counts, tcfg.inchworm())
    gff = graph_from_fasta(contigs, smoke_reads, tcfg.gff())
    assignments = reads_to_transcripts(
        smoke_reads, contigs, gff.components, tcfg.rtt()
    )
    return tcfg, contigs, gff.components, assignments, counts


@pytest.fixture(scope="module")
def serial_reference(workload, smoke_reads):
    """The back end's serial body on the workload (``local_quants``: every
    component's quantified graph): what every launch below must equal."""
    return serial_chrysalis_backend(
        _fused_inputs(workload, smoke_reads), _fused_config(workload[0])
    )


def _fused_inputs(workload, smoke_reads):
    tcfg, contigs, components, assignments, counts = workload
    return ChrysalisBackendInputs(
        contigs=contigs, reads=smoke_reads, components=components,
        assignments=assignments, counts=counts,
    )


def _fused_config(tcfg, **overrides):
    kwargs = dict(
        k=tcfg.k, butterfly=tcfg.butterfly(), nthreads=2,
    )
    kwargs.update(overrides)
    return ChrysalisBackendStageConfig(**kwargs)


class TestSerialEquality:
    # Equality with the serial body at 1/3/8 ranks under both deals, and
    # ``Trinity.fasta``'s bytes: ``tests/integration/test_parallel_equivalence.py``.
    def test_fused_equals_separate_butterfly_walk(self):
        """Walk-only distributed Butterfly is this stage on contig-only
        inputs (one contig per singleton component, no reads): it equals
        a separate ``butterfly_assemble`` over the same graphs."""
        # Adversarial skew: heavy components at stride NPROCS all land on
        # rank 0 under the cost-blind round-robin (one component per chunk).
        seqs = skewed_contigs(0, NPROCS, label="butterfly-test")
        cfg = ButterflyConfig(seed=0)
        serial = butterfly_assemble(
            {cid: fasta_to_debruijn([seq], 25) for cid, seq in enumerate(seqs)}, cfg
        )
        inputs = contig_only_inputs(seqs)

        def launch(strategy):
            return mpirun(
                mpi_chrysalis_backend, NPROCS, inputs,
                ChrysalisBackendStageConfig(butterfly=cfg, nthreads=1, strategy=strategy),
            )

        # The LPT deal spreads the heavies one per rank.  Demand a decisive
        # margin, not noise — on quantities the host cannot move.  Since
        # the walk reads integer rows a heavy component is 1.5 ms of
        # thread time and a light one 0.35 (8.4 / 0.59 ms on the dict
        # graph), so these makespans are 2-5 ms: one cyclic-GC pass
        # (~20 ms in a long pytest process) lands on whichever rank thread
        # allocated last, and eight rank threads sharing two CPUs put
        # their switches on each other's thread clocks (unpinned,
        # collector paused, best-of-three pairs read 0.36-1.06).  So (1)
        # the deal's own arithmetic, exact — the heaviest rank's share of
        # the cost vector it dealt; (2) the measured makespan, best of
        # three launches with the collector paused and the process pinned
        # to one CPU (0.37-0.44 over ten pairs; 0.34-0.39 on the dict
        # graph, where the heavies weighed more against the per-component
        # fixed cost).
        cpus = os.sched_getaffinity(0)
        gc.collect()
        gc.disable()
        os.sched_setaffinity(0, {max(cpus)})
        try:
            launches = {
                strategy: [launch(strategy) for _ in range(3)]
                for strategy in ("round_robin", "dynamic")
            }
        finally:
            os.sched_setaffinity(0, cpus)
            gc.enable()
        for runs in launches.values():
            for run in runs:
                assert all(r.transcripts == serial for r in run.outputs)
        costs = {
            comp.id: estimated_component_cost(
                comp, inputs.contigs, 25, cfg.max_paths_per_component
            )
            for comp in inputs.components
        }

        def heaviest_rank(run):
            return max(sum(costs[cid] for cid in r.local_quants) for r in run.outputs)

        assert heaviest_rank(launches["dynamic"][0]) < 0.6 * heaviest_rank(
            launches["round_robin"][0]
        )
        best = {s: min(run.makespan for run in runs) for s, runs in launches.items()}
        assert best["dynamic"] < 0.6 * best["round_robin"]

    def test_kernels_equal_scalar_oracle(self, workload, serial_reference, smoke_reads):
        """On these (``N``-free) inputs every quantified graph and every
        transcript equals what the dict graph, the scalar loop and both
        string-keyed walks in ``tests/reference_chrysalis.py`` produce."""
        from repro.trinity.chrysalis.quantify import reads_by_component
        from tests import reference_chrysalis as ref

        tcfg, contigs, components, assignments, counts = workload
        quants, serial = serial_reference.local_quants, serial_reference.transcripts
        routed = reads_by_component(assignments)
        solid = counts
        for walk in (ref.dfs_in_place, ref.dfs):
            oracle = []
            for comp in sorted(components, key=lambda c: c.id):
                graph = ref.fasta_to_debruijn(
                    orient_component([contigs[m].seq for m in comp.members], tcfg.weld_k),
                    tcfg.k,
                )
                old = ref.quantify_component(
                    comp.id, graph, smoke_reads, routed.get(comp.id, ()), solid=solid
                )
                new = quants[comp.id]
                assert new.graph.edge_weights() == ref.edge_weights(graph)
                assert (new.n_reads, new.read_edge_weight) == (old.n_reads, old.read_edge_weight)
                oracle += ref.butterfly_component(comp.id, graph, tcfg.butterfly(), walk)
            assert oracle == serial

    def test_graphs_stay_rank_local(self, workload, serial_reference, smoke_reads):
        """Full quants (graphs embedded) partition across ranks, no overlap."""
        tcfg = workload[0]
        quants = serial_reference.local_quants
        run = mpirun(
            mpi_chrysalis_backend, NPROCS,
            _fused_inputs(workload, smoke_reads),
            _fused_config(tcfg, strategy="dynamic"),
        )
        merged = {}
        for r in run.outputs:
            assert not set(merged) & set(r.local_quants)
            merged.update(r.local_quants)
        assert sorted(merged) == sorted(quants)
        for cid, q in merged.items():
            assert q.graph.edge_weights() == quants[cid].graph.edge_weights()


class TestRecovery:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    def test_crash_recovery_byte_identical(
        self, workload, serial_reference, smoke_reads, tmp_path, strategy
    ):
        tcfg = workload[0]
        serial = serial_reference.transcripts
        serial_path = tmp_path / "serial.fasta"
        write_fasta(serial_path, [t.to_record() for t in serial])
        wd = tmp_path / strategy
        plan = FaultPlan(crashes=(CrashFault(rank=2, phase="chrysalis:loop"),))
        rec = mpirun_with_recovery(
            mpi_chrysalis_backend, NPROCS,
            _fused_inputs(workload, smoke_reads),
            _fused_config(tcfg, nthreads=1, strategy=strategy, workdir=wd),
            faults=plan,
        )
        assert len(rec.outputs) == NPROCS - 1  # reran on the survivors
        assert rec.outputs[0].transcripts == serial
        assert rec.outputs[0].out_path.read_bytes() == serial_path.read_bytes()
        assert rec.metrics["faults.rank_losses"] == 1.0


    @pytest.mark.timeout(120)
    def test_crash_entering_the_serial_deal_entry_recovers(
        self, workload, serial_reference, smoke_reads
    ):
        """``chrysalis:deal`` has two entries since the replicated set-up
        became its serial one; a rank dying on the first — before any
        ``comm.shared`` cell it might own is published — releases its
        peers, and the survivors' re-deal gives the same bytes."""
        tcfg = workload[0]
        quants, serial = serial_reference.local_quants, serial_reference.transcripts
        plan = FaultPlan(crashes=(CrashFault(rank=0, phase="chrysalis:deal"),))
        rec = mpirun_with_recovery(
            mpi_chrysalis_backend, 3,
            _fused_inputs(workload, smoke_reads),
            _fused_config(tcfg, strategy="dynamic"),
            faults=plan,
        )
        assert len(rec.outputs) == 2 and rec.metrics["faults.rank_losses"] == 1.0
        for out in rec.outputs:
            assert out.transcripts == serial
            assert out.quant_stats == {
                cid: (q.n_reads, q.read_edge_weight) for cid, q in quants.items()
            }


class TestReadBlockUnits:
    """The unit of deal is a (component, read block).  No smoke component
    holds a block of reads (the largest: 148 x 75 bases), so every test
    above deals whole components; with the cutter at 3 000 bases the
    three largest span 3-4 blocks each.  The serial reference is still
    the one-block chain: equality shows the cut cannot be seen."""

    @pytest.fixture()
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(repro.seq.kmers, "PACK_BLOCK_BASES", 3_000)

    @pytest.mark.parametrize("nprocs", [1, 3, NPROCS])
    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    def test_split_components_match_serial_exactly(
        self, workload, serial_reference, smoke_reads, small_blocks, nprocs, strategy
    ):
        from repro.trinity.chrysalis.quantify import reads_by_component

        tcfg, _contigs, components, assignments, _counts = workload
        quants, serial = serial_reference.local_quants, serial_reference.transcripts
        units = read_block_units(
            smoke_reads, reads_by_component(assignments), sorted(c.id for c in components)
        )
        n_blocks = {cid: block + 1 for cid, block, _indices in units}
        assert max(n_blocks.values()) >= 3 and min(n_blocks.values()) == 1
        # Units are in (component, block) order and cover the routing table.
        assert [(cid, block) for cid, block, _i in units] == sorted(
            (cid, block) for cid, block, _i in units
        )
        routed = reads_by_component(assignments)
        for cid in n_blocks:
            assert [i for c, _b, idx in units if c == cid for i in idx] == routed.get(cid, [])
        run = mpirun(
            mpi_chrysalis_backend, nprocs,
            _fused_inputs(workload, smoke_reads),
            _fused_config(tcfg, strategy=strategy),
        )
        for r in run.outputs:
            assert r.transcripts == serial
            assert r.quant_stats == {
                cid: (q.n_reads, q.read_edge_weight) for cid, q in quants.items()
            }
        # The owner holds the quantified graph, whoever counted its blocks.
        merged = {}
        for r in run.outputs:
            assert not set(merged) & set(r.local_quants)
            merged.update(r.local_quants)
        assert sorted(merged) == sorted(quants)
        for cid, q in merged.items():
            assert q.graph.edge_weights() == quants[cid].graph.edge_weights()
        total = lambda name: sum(r.metrics[name] for r in run.outputs)
        assert total("n_units") == len(units) > len(components)
        assert total("n_split_components") == sum(n > 1 for n in n_blocks.values()) >= 3
        assert total("n_tables_sent") == total("n_tables_received")
        if nprocs == 1:
            assert total("n_tables_sent") == total("pool_bytes") == 0
        else:
            # Some split component's blocks were counted away from its owner.
            assert total("n_tables_sent") > 0 and total("pool_bytes") > 0

    def test_counts_repeat_and_the_pack_span_carries_units(
        self, workload, smoke_reads, small_blocks
    ):
        tcfg = workload[0]
        runs = [
            mpirun(
                mpi_chrysalis_backend, 3,
                _fused_inputs(workload, smoke_reads),
                _fused_config(tcfg, strategy="dynamic"), trace=True,
            )
            for _ in range(2)
        ]
        names = ("n_units", "n_split_components", "n_tables_sent",
                 "n_tables_received", "pool_bytes")
        per_rank = [[[r.metrics[n] for n in names] for r in run.outputs] for run in runs]
        assert per_rank[0] == per_rank[1]
        packs = [s for s in runs[0].spans if s.label == "chrysalis:pack"]
        assert sorted(s.attr("units") for s in packs) == sorted(
            r.metrics["n_units"] for r in runs[0].outputs
        )

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    @pytest.mark.parametrize("when", ["inside", "after"])
    def test_crash_around_the_table_exchange_recovers_the_bytes(
        self, workload, serial_reference, smoke_reads, small_blocks, monkeypatch,
        strategy, when
    ):
        """A rank dies inside the ``alltoall`` that carries block tables to
        their owners (its peers are parked in it), or an owner dies right
        after its tables arrived; the ``p - 1`` survivors re-deal the
        units and reproduce the serial bytes."""
        tcfg = workload[0]
        quants, serial = serial_reference.local_quants, serial_reference.transcripts
        alltoall, crashed, lock = SimComm.alltoall, [], threading.Lock()

        def first_to_ask(comm):
            with lock:  # two owners may ask at once; one dies
                crashed.append(comm.rank)
                return len(crashed) == 1

        def crashing(comm, values):
            victim = threading.current_thread().name == "simmpi-rank-1"
            if when == "inside" and victim and not crashed and first_to_ask(comm):
                raise RankCrash("crashed sending block tables")
            received = alltoall(comm, values)
            if when == "after" and any(received) and not crashed and first_to_ask(comm):
                raise RankCrash("an owner crashed holding its blocks' tables")
            return received

        monkeypatch.setattr(SimComm, "alltoall", crashing)
        rec = mpirun_with_recovery(
            mpi_chrysalis_backend, 3,
            _fused_inputs(workload, smoke_reads),
            _fused_config(tcfg, strategy=strategy),
        )
        assert crashed and len(rec.outputs) == 2
        for out in rec.outputs:
            assert out.transcripts == serial
            assert out.quant_stats == {
                cid: (q.n_reads, q.read_edge_weight) for cid, q in quants.items()
            }

    def test_flaky_io_retries_the_same_points(self, workload, smoke_reads, tmp_path):
        tcfg = workload[0]
        run = mpirun(
            mpi_chrysalis_backend, 3,
            _fused_inputs(workload, smoke_reads), _fused_config(tcfg, workdir=tmp_path),
            trace=True, faults=FaultPlan(flaky_io=FlakyIO(rate=1.0, max_consecutive=2), seed=7),
        )
        assert {s.label for s in run.spans if s.label.startswith("fault:retry:")} == {
            "fault:retry:chrysalis:read_inputs", "fault:retry:chrysalis:write_part",
            "fault:retry:chrysalis:write_merged",
        }


class TestRegions:
    @pytest.mark.parametrize("strategy", ["round_robin", "dynamic"])
    def test_region_entries_and_serial_share(self, workload, smoke_reads, strategy):
        """The label set stays ``{deal, loop, merge}``; ``deal`` is entered
        twice — first ``serial=True`` around the replicated ``comm.shared``
        set-ups, then the deal itself — and the stage's serial time is
        exactly those shared charges (it read 0 while they sat outside
        every serial region)."""
        from repro.obs.critical import critical_path

        tcfg = workload[0]
        run = mpirun(
            mpi_chrysalis_backend, 3,
            _fused_inputs(workload, smoke_reads),
            _fused_config(tcfg, strategy=strategy),
            trace=True,
        )
        shared = ["components", "route"]  # (``order`` is charged 0: no span)
        shared += ["costs"] if strategy == "dynamic" else []
        for rank in range(3):
            mine = [s for s in run.spans if s.track == f"rank {rank}"]
            phases = [s for s in mine if s.kind == "phase"]
            assert [(s.label, bool(s.attr("serial"))) for s in phases] == [
                ("chrysalis:deal", True), ("chrysalis:deal", False),
                ("chrysalis:loop", False), ("chrysalis:merge", False),
            ]
            charges = [s for s in mine if s.label.startswith("shared:chrysalis:")]
            assert [s.label for s in charges] == [f"shared:chrysalis:{key}" for key in shared]
            setup = phases[0]
            assert all(setup.start <= s.start and s.stop <= setup.stop for s in charges)
            assert setup.duration == pytest.approx(sum(s.duration for s in charges))
        report = critical_path(run)
        assert report.serial_time > 0
        assert report.serial_time == pytest.approx(
            sum(s.duration for s in run.spans
                if s.track == f"rank {report.critical_rank}"
                and s.label.startswith("shared:chrysalis:"))
        )

    def test_pack_span_carries_reads_and_windows(self, workload, smoke_reads):
        tcfg, _contigs, _components, assignments, _counts = workload
        run = mpirun(
            mpi_chrysalis_backend, 3,
            _fused_inputs(workload, smoke_reads), _fused_config(tcfg), trace=True,
        )
        packs = [s for s in run.spans if s.label == "chrysalis:pack"]
        assert len(packs) == 3 and {s.kind for s in packs} == {"compute"}
        routed = sum(a.component >= 0 for a in assignments)
        assert sum(s.attr("reads") for s in packs) == routed > 0
        assert sum(s.attr("windows") for s in packs) == sum(
            r.metrics["n_read_windows"] for r in run.outputs
        )
        loops = {s.track: s for s in run.spans if s.label == "chrysalis:loop"}
        assert all(
            loops[s.track].start <= s.start and s.stop <= loops[s.track].stop for s in packs
        )


class TestNonAcgtContigs:
    def test_contig_n_is_a_gap_serial_and_at_three_ranks(
        self, workload, serial_reference, smoke_reads
    ):
        """An ``N`` in a contig adds no edge and joins nothing, and lower
        case reads as upper case — the same through ``fasta_to_debruijn``,
        the serial chain and the stage at 3 ranks (the dict graph grew
        ``...N...`` nodes and Butterfly spelled them into transcripts)."""
        from repro.seq.records import Contig

        tcfg, contigs, components, assignments, counts = workload
        long = max(range(len(contigs)), key=lambda i: len(contigs[i].seq))
        edited = list(contigs)
        seq = contigs[long].seq
        mid = len(seq) // 2
        edited[long] = Contig(
            name=contigs[long].name, seq=seq[:mid] + "N" + seq[mid + 1 :].lower()
        )
        whole = fasta_to_debruijn([edited[long].seq], tcfg.k)
        halves = fasta_to_debruijn([seq[:mid], seq[mid + 1 :]], tcfg.k)
        assert whole.edge_weights() == halves.edge_weights()
        assert whole.n_edges == len(seq) - tcfg.k + 1 - tcfg.k

        inputs = ChrysalisBackendInputs(
            contigs=edited, reads=smoke_reads, components=components,
            assignments=assignments, counts=counts,
        )
        want = serial_chrysalis_backend(inputs, _fused_config(tcfg))
        quants, serial = want.local_quants, want.transcripts
        assert serial and not any(set(t.seq) - set("ACGT") for t in serial)
        run = mpirun(mpi_chrysalis_backend, 3, inputs, _fused_config(tcfg, strategy="dynamic"))
        for out in run.outputs:
            assert out.transcripts == serial
            assert out.quant_stats == {
                cid: (q.n_reads, q.read_edge_weight) for cid, q in quants.items()
            }
        # The edit was not a no-op: the component's graph lost the k contig
        # windows that held the N (here the reads still bridge the gap).
        (cid,) = [comp.id for comp in components if long in comp.members]
        assert quants[cid].graph.weights.sum() == (
            serial_reference.local_quants[cid].graph.weights.sum() - tcfg.k
        )


class TestCostModel:
    def test_estimated_cost_orders_by_contig_length(self, workload):
        tcfg, contigs, components, _assignments, _counts = workload
        bf = tcfg.butterfly()
        sized = sorted(
            components,
            key=lambda c: sum(len(contigs[m].seq) for m in c.members),
        )
        small, big = sized[0], sized[-1]
        if small is big:
            pytest.skip("smoke workload collapsed to one component")
        assert estimated_component_cost(
            big, contigs, tcfg.k, bf.max_paths_per_component
        ) >= estimated_component_cost(
            small, contigs, tcfg.k, bf.max_paths_per_component
        )

    def test_cost_monotone_in_routed_reads(self, workload):
        """Two components of equal contig length: the one with more routed
        reads costs more, and no reads is the walk-only cost."""
        tcfg, contigs, components, _assignments, _counts = workload
        comp, paths = components[0], tcfg.butterfly().max_paths_per_component
        costs = [
            estimated_component_cost(comp, contigs, tcfg.k, paths, n_reads)
            for n_reads in (0, 1, 50, 5000)
        ]
        assert costs == sorted(set(costs))
        assert costs[0] == estimated_component_cost(comp, contigs, tcfg.k, paths)

    def test_walk_only_costs_keep_their_order(self):
        """``contig_only_inputs`` routes no reads, so its deal is the
        nodes x paths ranking it always was."""
        seqs = skewed_contigs(0, NPROCS, label="butterfly-test")
        inputs = contig_only_inputs(seqs)
        costs = [
            estimated_component_cost(comp, inputs.contigs, 25, 12)
            for comp in inputs.components
        ]
        assert costs == [float((len(seq) - 25 + 2) * 12) for seq in seqs]

    def test_dynamic_deal_sees_routed_reads(self, workload, smoke_reads):
        """The stage's LPT deal is ``lpt_assign`` over the two-term costs:
        re-deriving it from the routing table reproduces every rank's
        component set."""
        from repro.parallel.component_stage import lpt_assign
        from repro.trinity.chrysalis.quantify import reads_by_component

        tcfg, contigs, components, assignments, _counts = workload
        routed = reads_by_component(assignments)
        cids = sorted(c.id for c in components)
        by_id = {c.id: c for c in components}
        costs = [
            estimated_component_cost(
                by_id[cid], contigs, tcfg.k,
                tcfg.butterfly().max_paths_per_component, len(routed.get(cid, ())),
            )
            for cid in cids
        ]
        assert any(len(routed.get(cid, ())) for cid in cids)
        run = mpirun(
            mpi_chrysalis_backend, 3,
            _fused_inputs(workload, smoke_reads),
            _fused_config(tcfg, strategy="dynamic"),
        )
        assert [sorted(r.local_quants) for r in run.outputs] == [
            sorted(rank_ids) for rank_ids in lpt_assign(costs, cids, 3)
        ]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PipelineError, match="strategy"):
            ChrysalisBackendStageConfig(strategy="static_block")


class TestMetrics:
    def test_stage_metrics_present(self, workload, smoke_reads):
        tcfg, _contigs, components, _assignments, _counts = workload
        run = mpirun(
            mpi_chrysalis_backend, 3,
            _fused_inputs(workload, smoke_reads),
            _fused_config(tcfg),
        )
        r = run.outputs[0]
        assert r.metrics["n_components"] == len(components)
        assert r.metrics["n_reads_threaded"] > 0
        assert run.makespan > 0

    def test_exact_counts_off_the_run_record(self, workload, serial_reference, smoke_reads):
        """``n_graph_edges`` / ``n_read_windows`` / ``pack_bytes`` are exact,
        rank-local and repeat run to run: edges sum to the serial graphs',
        windows to the clean (k-1)-mer windows of every routed read."""
        from repro.seq.kmers import kmer_windows_batch

        tcfg, _contigs, _components, assignments, _counts = workload
        quants = serial_reference.local_quants
        routed = [smoke_reads[a.read_index].seq for a in assignments if a.component >= 0]
        n_windows = kmer_windows_batch(routed, tcfg.k - 1)[0].size
        for nprocs in (1, 3):
            runs = [
                mpirun(
                    mpi_chrysalis_backend, nprocs,
                    _fused_inputs(workload, smoke_reads), _fused_config(tcfg),
                )
                for _ in range(2)
            ]
            per_rank = [
                [(r.metrics["n_graph_edges"], r.metrics["n_read_windows"],
                  r.metrics["pack_bytes"]) for r in run.outputs]
                for run in runs
            ]
            assert per_rank[0] == per_rank[1]
            edges, windows, nbytes = map(sum, zip(*per_rank[0]))
            assert edges == sum(q.graph.n_edges for q in quants.values())
            assert windows == n_windows
            assert nbytes >= 16 * windows
