"""Benchmark: regenerate Figure 9 (hybrid ReadsToTranscripts scaling)."""

from benchmarks.conftest import run_once
from repro.experiments import paper
from repro.experiments.fig09_rtt_scaling import run as run_fig09


def test_fig09_rtt_scaling(benchmark, workload):
    result = run_once(benchmark, run_fig09, workload=workload)
    print()
    print(result.render())
    p4 = next(p for p in result.points if p.nodes == 4)
    p32 = next(p for p in result.points if p.nodes == 32)
    benchmark.extra_info.update(
        {
            "loop_4n_s": round(p4.loop_max),
            "loop_4n_s_paper": paper.RTT_LOOP_4N_S,
            "loop_32n_s": round(p32.loop_max),
            "loop_32n_s_paper": paper.RTT_LOOP_32N_S,
            "total_speedup_32": round(result.total_speedup_32, 2),
            "total_speedup_32_paper": paper.RTT_TOTAL_SPEEDUP_32N,
        }
    )
    assert result.total_speedup_32 > 15.0
    assert p32.concat_max < paper.RTT_CONCAT_MAX_S
