"""Micro-benchmarks of the hot kernels (profiling guide: measure first).

These are conventional multi-round benchmarks — they track the real
Python kernel performance that the calibrated simulations build on.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.seq.kmers import kmer_array, revcomp_codes
from repro.openmp.schedule import dynamic_makespan
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig, TrinityPipeline
from repro.trinity.bowtie import BowtieConfig, BowtieIndex, ReadSeeds, align_seeds, read_hits
from repro.trinity.butterfly import butterfly_assemble, butterfly_component
from repro.trinity.chrysalis.debruijn import fasta_to_debruijn
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    build_weldmer_index,
    shared_seed_array,
)
from repro.trinity.chrysalis.orient import orient_component
from repro.trinity.chrysalis.quantify import (
    pack_routed_reads,
    quantify_component,
    reads_by_component,
    solid_index,
)
from repro.parallel.mpi_inchworm import component_setup
from repro.trinity.inchworm import (
    InchwormConfig,
    _salt,
    _seed_order,
    assemble_queue,
    chain_table,
    inchworm_assemble,
    keyed_contigs,
    neighbours,
    seed_queues,
)
from repro.trinity.jellyfish import jellyfish_count
from repro.trinity.kmer_components import kmer_components, overlap_edges
from repro.trinity.pairs import reconcile_with_pairs
from repro.util.rng import spawn_rng
from repro.validation.smith_waterman import sw_align, sw_score
from tests import reference_chrysalis, reference_gff, reference_inchworm, reference_pairs
from tests.reference_components import bfs_labels


def _random_seq(n, seed=0):
    rng = spawn_rng(seed, "bench")
    return "".join("ACGT"[c] for c in rng.integers(0, 4, n))


def test_bench_kmer_extraction(benchmark):
    seq = _random_seq(100_000)
    result = benchmark(kmer_array, seq, 25)
    assert result.size == 100_000 - 24


def test_bench_revcomp_vectorised(benchmark):
    arr = kmer_array(_random_seq(100_000), 25)
    out = benchmark(revcomp_codes, arr, 25)
    assert out.size == arr.size


def test_bench_jellyfish_count(benchmark, bench_reads):
    counts = benchmark(jellyfish_count, bench_reads[:2000], 25)
    assert len(counts) > 0


def test_bench_inchworm(benchmark, bench_reads):
    counts = jellyfish_count(bench_reads, 25)

    def assemble():
        return inchworm_assemble(counts, InchwormConfig(seed=0))

    contigs = benchmark(assemble)
    assert contigs


def test_bench_bowtie_align(benchmark, bench_reads):
    counts = jellyfish_count(bench_reads, 25)
    contigs = inchworm_assemble(counts, InchwormConfig(seed=0))
    index = BowtieIndex(contigs, BowtieConfig())
    reads = bench_reads[:200]

    def align():
        return read_hits(align_seeds(ReadSeeds.build(reads, index.cfg), index), len(reads))

    hits = benchmark(align)
    assert len(hits) == 200


def test_bench_smith_waterman(benchmark):
    q = _random_seq(500, seed=1)
    t = _random_seq(500, seed=2)
    benchmark(sw_align, q, t)


def test_bench_sw_score_only(benchmark):
    q = _random_seq(1000, seed=3)
    t = _random_seq(1000, seed=4)
    benchmark(sw_score, q, t)


def test_bench_dynamic_schedule(benchmark):
    rng = spawn_rng(0, "sched-bench")
    costs = rng.lognormal(0, 1, 100_000)
    ms = benchmark(dynamic_makespan, costs, 16)
    assert ms > 0


@pytest.fixture(scope="module")
def whitefly_half():
    """The pipeline benchmark's whitefly-half library, assembled serially."""
    from benchmarks.pipeline.spec import LIBRARY_SEED, WHITEFLY

    _txome, pairs = WHITEFLY.materialize(seed=LIBRARY_SEED)
    reads = flatten_reads(pairs)
    tcfg = TrinityConfig(seed=1)
    return tcfg, reads, TrinityPipeline(tcfg).run(reads).outputs


@pytest.fixture(scope="module")
def giant_component(whitefly_half):
    """The whitefly-half library's largest component (one 2.5-kb contig,
    ~840 routed reads, ~2 600 nodes): most of the fused back end's loop,
    and the critical rank's whole share at 8 ranks."""
    tcfg, reads, out = whitefly_half
    routed = reads_by_component(out.assignments)
    comp = max(out.gff.components, key=lambda c: len(routed.get(c.id, ())))
    oriented = orient_component([out.contigs[m].seq for m in comp.members], tcfg.weld_k)
    solid = solid_index(out.counts, tcfg.min_kmer_count)
    return tcfg, comp.id, oriented, reads, routed[comp.id], solid


def _oracle_component(giant_component):
    """The dict graph threaded by the per-read loop: ``(graph, quant, seconds)``."""
    tcfg, cid, oriented, reads, read_indices, solid = giant_component
    t0 = time.perf_counter()
    graph = reference_chrysalis.fasta_to_debruijn(oriented, tcfg.k)
    quant = reference_chrysalis.quantify_component(cid, graph, reads, read_indices, solid=solid)
    return graph, quant, time.perf_counter() - t0


def test_bench_quantify_component(benchmark, giant_component):
    """Pack + build + vote + count + merge of the giant component: the
    graph must be the per-read loop's on the dict graph, and at least 2x
    faster than it with the pack included (measured 6-12x: 0.094-0.17 s
    -> 0.012-0.015 s; PR 18's batched kernel on the dict graph, graph
    build not included, 0.016-0.018 s)."""
    from benchmarks.conftest import _best_of

    tcfg, cid, oriented, reads, read_indices, solid = giant_component

    def build_and_thread():
        graph = fasta_to_debruijn(oriented, tcfg.k)
        pack = pack_routed_reads(reads, {cid: read_indices}, tcfg.k, solid)
        return quantify_component(cid, graph, pack)

    quant = benchmark.pedantic(build_and_thread, rounds=10)
    assert quant.n_reads == len(read_indices) > 500
    want_graph, want, oracle_s = _oracle_component(giant_component)
    assert quant.graph.edge_weights() == reference_chrysalis.edge_weights(want_graph)
    assert (quant.n_reads, quant.read_edge_weight) == (want.n_reads, want.read_edge_weight)
    kernel_s = _best_of(build_and_thread, 5)
    benchmark.extra_info.update({"oracle_s": oracle_s, "kernel_s": kernel_s})
    assert oracle_s >= 2 * kernel_s


def test_bench_butterfly_walk(benchmark, giant_component):
    """Rows + walk + spelling of the giant component's quantified graph:
    the transcripts must be the string-keyed walk's on the dict graph, at
    least 5x faster than it (the per-node walk over integer rows measured
    3.2-3.8x; the run walk 12-13x: 0.011-0.017 s -> 0.0009-0.0013 s)."""
    from benchmarks.conftest import _best_of

    tcfg, cid, oriented, reads, read_indices, solid = giant_component
    graph = fasta_to_debruijn(oriented, tcfg.k)
    quantify_component(cid, graph, pack_routed_reads(reads, {cid: read_indices}, tcfg.k, solid))
    transcripts = benchmark(butterfly_component, cid, graph, tcfg.butterfly())
    assert len(transcripts) > 1
    assert graph.n_nodes > 2000
    want_graph, _quant, _s = _oracle_component(giant_component)
    cfg = tcfg.butterfly()
    assert transcripts == reference_chrysalis.butterfly_component(cid, want_graph, cfg)
    oracle_s = _best_of(lambda: reference_chrysalis.butterfly_component(cid, want_graph, cfg), 5)
    kernel_s = _best_of(lambda: butterfly_component(cid, graph, cfg), 5)
    benchmark.extra_info.update({"oracle_s": oracle_s, "kernel_s": kernel_s})
    assert oracle_s >= 5 * kernel_s


def test_bench_butterfly_runs_vs_rows(benchmark, whitefly_half):
    """Every whitefly-half component's quantified graph, walked: the run
    walk summed over them must not be slower than the per-node walk over
    the same rows (``reference_chrysalis.butterfly_rows``), so the
    components walked once — most of them — do not pay for the layout
    (measured 0.0091 s -> 0.0067-0.0068 s, 1.34-1.36x)."""
    from benchmarks.conftest import _best_of

    tcfg, reads, out = whitefly_half
    routed = reads_by_component(out.assignments)
    graphs = {
        comp.id: fasta_to_debruijn(
            orient_component([out.contigs[m].seq for m in comp.members], tcfg.weld_k), tcfg.k
        )
        for comp in out.gff.components
    }
    solid = solid_index(out.counts, tcfg.min_kmer_count)
    pack = pack_routed_reads(reads, {cid: routed.get(cid, ()) for cid in graphs}, tcfg.k, solid)
    for cid, graph in graphs.items():
        quantify_component(cid, graph, pack)
    cfg = tcfg.butterfly()

    def walk_all(walk):
        return [walk(cid, graph, cfg) for cid, graph in graphs.items()]

    assert benchmark(walk_all, butterfly_component) == walk_all(reference_chrysalis.butterfly_rows)
    rows_s = _best_of(lambda: walk_all(reference_chrysalis.butterfly_rows), 7)
    runs_s = _best_of(lambda: walk_all(butterfly_component), 7)
    benchmark.extra_info.update({"rows_s": rows_s, "runs_s": runs_s})
    assert runs_s <= rows_s


def test_bench_backend_chain_is_linear(benchmark):
    """Build + pack + quantify + walk of every component, serially, on the
    whitefly-half library and on 4x of it (80 genes, 8 400 reads): 4x the
    reads must cost <= 6x (log-log slope <= 1.3; measured 3.6-4.1x), so a
    per-read loop, a per-component re-encode or a graph that grows
    quadratically comes back here and not at the next re-anchor."""
    from benchmarks.conftest import _best_of
    from benchmarks.pipeline.spec import LIBRARY_SEED, WHITEFLY

    tcfg = TrinityConfig(seed=1)

    def library(scale):
        recipe = replace(
            WHITEFLY, n_genes=WHITEFLY.n_genes * scale, n_reads=WHITEFLY.n_reads * scale
        )
        reads = flatten_reads(recipe.materialize(seed=LIBRARY_SEED)[1])
        out = TrinityPipeline(tcfg).run(reads).outputs
        members = {
            comp.id: orient_component([out.contigs[m].seq for m in comp.members], tcfg.weld_k)
            for comp in out.gff.components
        }
        return reads, members, out.assignments, solid_index(out.counts, tcfg.min_kmer_count)

    def chain(reads, members, assignments, solid):
        graphs = {cid: fasta_to_debruijn(seqs, tcfg.k) for cid, seqs in members.items()}
        routed = reads_by_component(assignments)
        pack = pack_routed_reads(
            reads, {cid: routed.get(cid, ()) for cid in graphs}, tcfg.k, solid
        )
        for cid, graph in graphs.items():
            quantify_component(cid, graph, pack)
        return butterfly_assemble(graphs, tcfg.butterfly())

    small, big = library(1), library(4)
    transcripts = benchmark(chain, *small)
    assert len(transcripts) > 20
    small_s, big_s = _best_of(lambda: chain(*small), 5), _best_of(lambda: chain(*big), 3)
    benchmark.extra_info.update({"chain_s": small_s, "chain_4x_s": big_s})
    assert big_s <= 6 * small_s


def test_bench_inchworm_table_walk(benchmark, whitefly_half):
    """Seed queue + chain table + walks over the giant k-mer-graph
    component (a quarter of the filtered table, and its owner's whole
    Inchworm share at 8 ranks): what one rank pays in
    ``inchworm:assemble``, the recorded column.  ``extra_info`` adds the
    whole table in seed order, the one queue ``whitefly-1r`` pays: its
    fork rows, chains and ``assemble_queue`` thread CPU (best of 5).  On
    whitefly-half 38 of 40 896 rows fork and 170 chains (340 heads over
    both orientations) cover the 10 224 k-mers.  Thread CPU on one core
    of a shared 2-vCPU VM, the whole table's 151 walks with their seed
    loop, the two walks interleaved, best of 100, three runs: the
    per-step walk the chain jump replaced took 0.46-0.73 us a step
    (10 073 steps, 4.6-7.3 ms); the chain walk takes 1.3-1.8 ms, 2.8-3.8
    us per visited run (463: the seeds, 274 chain jumps and the single
    steps at chain ends).  The oracle's contigs are the check; no timing
    floor."""
    from repro.mpi.clock import Stopwatch

    tcfg, _reads, out = whitefly_half
    cfg, canonical = tcfg.inchworm(), out.counts.canonical
    filtered = out.counts.index.filtered(cfg.min_kmer_count)
    landing, ids, _costs = component_setup(filtered, [neighbours(filtered, canonical)])
    sizes = np.bincount(ids)
    giant = int(np.argmax(sizes))
    whole = _seed_order(filtered, _salt(cfg))

    def giant_component():
        (queue,) = seed_queues(filtered, cfg, ids, [[giant]])
        return assemble_queue(filtered, canonical, cfg, landing, queue)

    def whole_table_s():
        with Stopwatch() as watch:
            assemble_queue(filtered, canonical, cfg, landing, whole)
        return watch.seconds

    keyed = benchmark(giant_component)
    assert sizes[giant] > 2000
    oracle = reference_inchworm.inchworm_assemble(out.counts, cfg)
    assert keyed
    assert {(seq, cov) for _key, seq, cov in keyed} <= {(c.seq, c.coverage) for c in oracle}
    assert keyed_contigs(assemble_queue(filtered, canonical, cfg, landing, whole)) == oracle
    table = chain_table(filtered, canonical, _salt(cfg), landing, whole)
    benchmark.extra_info.update({
        "fork_rows": len(table.forks),
        "chains": len(set(table.lo.tolist())),
        "whole_table_assemble_ms": 1e3 * min(whole_table_s() for _ in range(5)),
    })


def test_bench_kmer_components(benchmark, whitefly_half):
    """The replicated part of Inchworm's set-up — the Shiloach-Vishkin
    labelling of the whole filtered table, run by every rank — on
    whitefly-half: the labels must be the BFS oracle's (measured 1.3 ms
    with contracted edge lists, 2.0 ms without)."""
    from benchmarks.conftest import _best_of

    tcfg, _reads, out = whitefly_half
    filtered = out.counts.index.filtered(tcfg.min_kmer_count)
    landing = neighbours(filtered, out.counts.canonical)
    labels = benchmark(kmer_components, landing)
    assert np.array_equal(labels, bfs_labels(len(filtered), *overlap_edges(landing)))
    assert np.unique(labels).size > 50
    benchmark.extra_info["labelling_ms"] = 1e3 * _best_of(lambda: kmer_components(landing), 10)


def test_bench_pair_support(benchmark, whitefly_half):
    """Pair reconciliation of the whole library — the driver's front-end
    glue step; the giant component's ~420 pairs x its isoforms dominate.
    Seed-and-verify against the per-pair string scans it replaced."""
    _tcfg, reads, out = whitefly_half
    kept, stats = benchmark(reconcile_with_pairs, out.transcripts, reads, out.assignments)
    want, want_stats = reference_pairs.reconcile_with_pairs(
        out.transcripts, reads, out.assignments
    )
    assert [(t.name, t.seq) for t in kept] == [(t.name, t.seq) for t in want]
    assert stats == want_stats and stats.n_in > 50


def test_bench_weldmer_scan(benchmark):
    """GraphFromFasta's set-up — the shared-seed table over the contigs
    and the weldmer scan over the reads — on the pipeline benchmark's
    sugarbeet-third library (2 700 reads, 118 contigs): the table must be
    the position-by-position oracle's, at least 5x faster than it
    (measured 19x: 0.141 s -> 0.0073 s), and linear in the input: 4x the
    library costs <= 6x (log-log slope <= 1.3; measured 4.5x, slope 1.08),
    so a kernel whose working set leaves the cache, or a per-read loop
    coming back, fails here and not at the next re-anchor."""
    from benchmarks.conftest import _best_of
    from benchmarks.pipeline.spec import LIBRARY_SEED, SUGARBEET

    cfg = GraphFromFastaConfig(k=24)

    def library(scale):
        recipe = replace(
            SUGARBEET, n_genes=SUGARBEET.n_genes * scale, n_reads=SUGARBEET.n_reads * scale
        )
        _txome, pairs = recipe.materialize(seed=LIBRARY_SEED)
        reads = flatten_reads(pairs)
        return reads, inchworm_assemble(jellyfish_count(reads, 25), InchwormConfig(seed=1))

    def setup(reads, contigs):
        return build_weldmer_index(reads, shared_seed_array(contigs, cfg), cfg)

    reads, contigs = library(1)
    table = benchmark(setup, reads, contigs)
    t0 = time.perf_counter()
    want = reference_gff.build_weldmer_index(
        reads, reference_gff.shared_seed_codes(contigs, cfg), cfg
    )
    oracle_s = time.perf_counter() - t0
    assert table == want and len(table) >= 2
    kernel_s = _best_of(lambda: setup(reads, contigs), 5)
    big = library(4)
    big_s = _best_of(lambda: setup(*big), 3)
    benchmark.extra_info.update(
        {"oracle_s": oracle_s, "kernel_s": kernel_s, "kernel_4x_s": big_s}
    )
    assert oracle_s >= 5 * kernel_s
    assert big_s <= 6 * kernel_s
