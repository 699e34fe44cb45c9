"""Ablations of the paper's explicit design choices.

Three decisions the paper describes making (and in two cases, reversing
an earlier attempt):

* **abl-sched** (SS:III.B): pre-allocated static blocks vs chunked
  round-robin for GraphFromFasta's loops.
* **abl-rtt-io** (SS:III.C): master/slave chunk distribution vs the
  redundant-read strategy for ReadsToTranscripts.
* **abl-merge** (SS:III.C): per-rank files + master ``cat`` vs gathering
  all output at the root over MPI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster.workload import build_workload
from repro.parallel.scaling import simulate_gff, simulate_rtt
from repro.util.fmt import format_table


# ---------------------------------------------------------------------------
# abl-sched
# ---------------------------------------------------------------------------


@dataclass
class SchedulerAblationResult:
    nodes_list: List[int]
    round_robin_s: List[float]
    static_block_s: List[float]

    def render(self) -> str:
        rows = [
            [n, f"{rr:.0f}", f"{sb:.0f}", f"{sb / rr:.2f}x"]
            for n, rr, sb in zip(self.nodes_list, self.round_robin_s, self.static_block_s)
        ]
        return "Ablation — chunked round-robin vs pre-allocated static blocks (GFF loops)\n" + format_table(
            ["nodes", "round-robin (s)", "static blocks (s)", "RR advantage"], rows
        )


def run_scheduler_ablation(
    nodes_list: Sequence[int] = (16, 64, 128), seed: int = 0
) -> SchedulerAblationResult:
    """Both strategies on the abundance-ordered (head-heavy) workload —
    the file order Inchworm actually writes."""
    workload = build_workload(seed=seed, order="abundance")
    rr, sb = (
        [p.loop1_max + p.loop2_max for p in simulate_gff(nodes_list, workload, strategy)]
        for strategy in ("round_robin", "static_block")
    )
    return SchedulerAblationResult(list(nodes_list), rr, sb)


# ---------------------------------------------------------------------------
# abl-rtt-io
# ---------------------------------------------------------------------------


@dataclass
class RttIoAblationResult:
    nodes_list: List[int]
    redundant_read_s: List[float]
    master_slave_s: List[float]

    def render(self) -> str:
        rows = [
            [n, f"{rr:.0f}", f"{ms:.0f}", f"{ms / rr:.2f}x"]
            for n, rr, ms in zip(self.nodes_list, self.redundant_read_s, self.master_slave_s)
        ]
        return (
            "Ablation — redundant-read vs master/slave chunk distribution (RTT loop)\n"
            + format_table(
                ["nodes", "redundant read (s)", "master/slave (s)", "overhead"], rows
            )
        )


#: Effective bandwidth of generic-object (pickled) mpi4py-style sends.
#: The paper's first master/slave implementation shipped chunks of read
#: strings as generic objects; serialisation caps throughput around
#: 100 MB/s — far below the FDR10 link — which is what makes the master
#: "a bottleneck particularly as the number of slave nodes increases".
PICKLE_EFFECTIVE_BW = 100e6


def run_rtt_io_ablation(
    nodes_list: Sequence[int] = (4, 8, 16, 32, 64), seed: int = 0
) -> RttIoAblationResult:
    """Model both distribution strategies at paper scale.

    Redundant read: every rank reads the (page-cached) file and keeps its
    chunks — compute scales, I/O is a small constant.

    Master/slave: rank 0 reads and pickles/sends every chunk through a
    serial pipeline that does not overlap slave compute; the distribution
    term is constant while compute shrinks with nodes, so the strategy
    saturates — the paper's stated reason for abandoning it.
    """
    workload = build_workload(seed=seed)
    file_bytes = 15e9  # the sugarbeet FASTA
    t_distribute = file_bytes / PICKLE_EFFECTIVE_BW
    redundant = [p.loop_max for p in simulate_rtt(nodes_list, workload)]
    # The slaves read nothing: the master ships them their chunks.
    master_slave = [
        t_distribute + p.loop_max for p in simulate_rtt(nodes_list, workload, read_s=0.0)
    ]
    return RttIoAblationResult(list(nodes_list), redundant, master_slave)


# ---------------------------------------------------------------------------
# abl-merge
# ---------------------------------------------------------------------------


@dataclass
class MergeAblationResult:
    nodes_list: List[int]
    cat_s: List[float]
    gather_s: List[float]

    def render(self) -> str:
        rows = [
            [n, f"{c:.1f}", f"{g:.1f}"]
            for n, c, g in zip(self.nodes_list, self.cat_s, self.gather_s)
        ]
        return "Ablation — per-rank files + cat vs root-gather output merge (RTT output)\n" + format_table(
            ["nodes", "cat merge (s)", "root gather (s)"], rows
        )


def run_merge_ablation(
    nodes_list: Sequence[int] = (4, 16, 64, 192),
    total_output_bytes: int = 26_000_000_000,  # ~200 B/read x 130 M reads
) -> MergeAblationResult:
    """`cat` rereads the per-rank files at disk bandwidth; the root-gather
    alternative the paper mentions ships the same bytes over MPI as
    generic objects (pickle-capped, see :data:`PICKLE_EFFECTIVE_BW`) and
    then writes once.  cat stays "below 15 seconds" and flat in ranks —
    why the paper shipped it."""
    disk_bw = 2e9  # page-cached re-read + write
    cat, gather = [], []
    for nodes in nodes_list:
        cat.append(total_output_bytes / disk_bw)
        gather.append(
            total_output_bytes / PICKLE_EFFECTIVE_BW + total_output_bytes / disk_bw
        )
    return MergeAblationResult(list(nodes_list), cat, gather)
