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

