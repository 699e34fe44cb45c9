"""Figure 3: the chunked round-robin distribution strategy.

The paper's figure is an illustration (4 MPI processes x 2 OpenMP
threads); we render the same dealing table from the actual chunking code
and additionally quantify *why* the strategy was chosen, by comparing it
against the pre-allocated static-block strategy the authors tried first
(SS:III.B: "this did not give us a good speedup").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.workload import build_workload
from repro.parallel.chunks import chunk_size, chunks_for_rank
from repro.parallel.scaling import TEAM, chunk_makespans, rank_loads
from repro.util.fmt import format_table


@dataclass
class Fig03Result:
    nprocs: int
    nthreads: int
    n_chunks: int
    dealing: Dict[int, List[int]]  # rank -> chunk ids
    round_robin_makespan: float
    static_block_makespan: float

    @property
    def advantage(self) -> float:
        """Static-block time / chunked-round-robin time (>1 = RR wins)."""
        return self.static_block_makespan / self.round_robin_makespan

    def render(self) -> str:
        rows = [[r, " ".join(map(str, chunks))] for r, chunks in sorted(self.dealing.items())]
        table = format_table(["rank", "chunks (each split over threads)"], rows)
        cmp = format_table(
            ["strategy", "makespan (s)"],
            [
                ["chunked round-robin (paper)", f"{self.round_robin_makespan:.0f}"],
                ["pre-allocated static blocks (rejected)", f"{self.static_block_makespan:.0f}"],
            ],
        )
        return (
            f"Figure 3 — chunked round-robin, {self.nprocs} MPI x {self.nthreads} OpenMP\n"
            f"{table}\n\n{cmp}\n"
            f"round-robin advantage on the sugarbeet loop-2 workload: {self.advantage:.2f}x"
        )


def run(nprocs: int = 4, nthreads: int = 2, seed: int = 0) -> Fig03Result:
    # Illustration part: 16 chunks dealt to nprocs ranks, as in the figure.
    n_chunks = 16
    dealing = {r: chunks_for_rank(n_chunks, r, nprocs) for r in range(nprocs)}

    # Quantitative part: both strategies on the paper-scale loop-2 costs
    # in Inchworm's abundance (head-heavy) file order — the ordering that
    # sank the authors' first, pre-allocated strategy — at 64 nodes x 16
    # threads.  A round-robin rank runs its chunks one after another.
    costs = build_workload(seed=seed, order="abundance").loop2_costs
    chunks = chunk_makespans(costs, chunk_size(costs.size, 64, TEAM))
    return Fig03Result(
        nprocs=nprocs,
        nthreads=nthreads,
        n_chunks=n_chunks,
        dealing=dealing,
        round_robin_makespan=float(rank_loads(chunks, 64, nthreads=1).max()),
        static_block_makespan=float(rank_loads(costs, 64, "static_block").max()),
    )
