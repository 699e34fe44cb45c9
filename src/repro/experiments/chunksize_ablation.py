"""abl-chunksize: how the round-robin chunk count shapes Figure 7.

The paper does not publish its chunk-size constant, and our one known
divergence from Figure 7 (EXPERIMENTS.md) hinges on it: with few chunks
per rank, count lumpiness at non-divisor node counts produces exactly the
loop-2 collapse the paper measures at 192 nodes.  This ablation sweeps
the ``chunks_total`` of the stages' own chunk rule
(:func:`repro.parallel.chunks.chunk_size`) and reports loop-2 time and
imbalance at 128 and 192 nodes, exposing the regime where the paper's
regression appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.workload import ChrysalisWorkload, build_workload
from repro.parallel.scaling import simulate_gff
from repro.util.fmt import format_table


@dataclass
class ChunksizeAblationResult:
    chunks_totals: List[int]
    loop2_128_s: List[float]
    loop2_192_s: List[float]
    imbalance_192: List[float]

    def render(self) -> str:
        rows = [
            [c, f"{t128:.0f}", f"{t192:.0f}", f"{imb:.2f}", "YES" if t192 > t128 else "no"]
            for c, t128, t192, imb in zip(
                self.chunks_totals, self.loop2_128_s, self.loop2_192_s, self.imbalance_192
            )
        ]
        table = format_table(
            ["chunks_total", "loop2 @128 (s)", "loop2 @192 (s)", "imb @192", "192 regression?"],
            rows,
        )
        return (
            "Ablation — chunk-count sensitivity of the Fig 7 loop-2 behaviour\n"
            f"{table}\n"
            "(with ~1-2 chunks per rank, loop-2 scaling saturates and imbalance\n"
            " approaches the paper's >3x; the paper's outright 128->192 slowdown\n"
            " additionally needs an unlucky heavy-chunk collocation on the\n"
            " 192-rank stride. Our default 512 chunks sits in the smooth regime.)"
        )


def run_chunksize_ablation(
    chunks_totals: Sequence[int] = (192, 256, 384, 512, 2048),
    workload: Optional[ChrysalisWorkload] = None,
    seed: int = 0,
) -> ChunksizeAblationResult:
    workload = workload if workload is not None else build_workload(seed=seed)
    l128, l192, imb = [], [], []
    for chunks_total in chunks_totals:
        p128, p192 = simulate_gff((128, 192), workload, chunks_total=chunks_total)
        l128.append(p128.loop2_max)
        l192.append(p192.loop2_max)
        imb.append(p192.loop2_imbalance)
    return ChunksizeAblationResult(list(chunks_totals), l128, l192, imb)
