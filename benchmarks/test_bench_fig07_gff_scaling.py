"""Benchmark: regenerate Figure 7 (hybrid GraphFromFasta scaling).

Prints the same series the figure plots (loop 1/2 max & min times per
node count) and records measured-vs-paper speedups in extra_info.
"""

from benchmarks.conftest import run_once
from repro.experiments import paper
from repro.experiments.fig07_gff_scaling import run as run_fig07


def test_fig07_gff_scaling(benchmark, workload):
    result = run_once(benchmark, run_fig07, workload=workload)
    print()
    print(result.render())
    benchmark.extra_info.update(
        {
            "loop1_speedup_128": round(result.loop1_speedup(128), 2),
            "loop1_speedup_128_paper": paper.GFF_LOOP1_SPEEDUP_128,
            "loop1_speedup_192": round(result.loop1_speedup(192), 2),
            "loop1_speedup_192_paper": paper.GFF_LOOP1_SPEEDUP_192,
            "loop2_speedup_128": round(result.loop2_speedup(128), 2),
            "loop2_speedup_128_paper": paper.GFF_LOOP2_SPEEDUP_128,
            "total_speedup_16": round(result.total_speedup(16), 2),
            "total_speedup_16_paper": paper.GFF_SPEEDUP_16N,
            "total_speedup_192": round(result.total_speedup(192), 2),
            "total_speedup_192_paper": paper.GFF_SPEEDUP_192N,
        }
    )
    # Shape assertions (the bench fails if the reproduction regresses).
    assert result.total_speedup(16) > 4.0
    assert result.total_speedup(192) > 18.0


def test_fig07_gff_wallclock_mpirun(benchmark):
    """The *actual* simulated mpirun (not the analytic replay), at a
    CI-friendly size; BENCH_fig07.json tracks the full 1/8/64 sweep.

    Host wall: with the rank-shared cache for what is still replicated
    (k-mer map, weld index, components), simulating more ranks must not
    multiply the host cost.  Virtual makespan: the read weldmer scan is
    dealt across the ranks, so the stage now scales — measured on this
    workload, 1 / 8 / 64 ranks, before 0.199 / 0.211 / 0.204 s (the
    replicated scan *was* the makespan: 1.0x from 64 ranks) and after
    0.205 / 0.043 / 0.061 s; host wall 0.207 / 0.219 / 0.263 s before,
    0.213 / 0.229 / 0.414 s after (unpinned, best of 3).

    PR 21 (the scan counts pairs of k-mer codes, the seed table is one
    array pass): floors re-checked, both hold with more room than before.
    Same host, same hour, 1 / 8 / 64 ranks: makespan 0.235 / 0.062-0.066 /
    0.026-0.031 s -> 0.034-0.041 / 0.008-0.009 / 0.005-0.006 s, host wall
    0.245 / 0.26-0.28 / 0.32-0.37 s -> 0.040-0.049 / 0.046-0.055 /
    0.10-0.13 s (two parent sweeps, four of the change).  The 8-over-1
    makespan ratio this guards at < 0.75 reads 0.23 (was 0.27); the wall
    ratio guarded at < 3 reads 1.1.
    """
    from benchmarks.fig07_bench_runner import run_points

    points = benchmark.pedantic(run_points, args=([1, 8],), rounds=1, iterations=1)
    by_np = {p["nprocs"]: p for p in points}
    benchmark.extra_info.update(
        {
            "wall_s_1": by_np[1]["wall_s"],
            "wall_s_8": by_np[8]["wall_s"],
            "makespan_1": by_np[1]["virtual_makespan_s"],
            "makespan_8": by_np[8]["virtual_makespan_s"],
        }
    )
    # Pre-cache this ratio was ~7x (every rank redundantly rebuilt the
    # setup tables and wall clocks measured peers' GIL time).
    assert by_np[8]["wall_s"] < 3.0 * by_np[1]["wall_s"]
    # A stage that does not scale at all passed the old "< 2.5x" guard.
    assert by_np[8]["virtual_makespan_s"] < 0.75 * by_np[1]["virtual_makespan_s"]
