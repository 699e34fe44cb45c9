"""Experiments for the paper's SS:VI future-work directions (fw-*).

Each compares the shipped design against the improvement the authors
said they would try next, at paper scale.  The variants are built here
on the shared model's points and terms, not as flags of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.workload import ChrysalisWorkload, build_workload
from repro.parallel.scaling import NETWORK, ScalingPoint, simulate_gff, simulate_rtt
from repro.util.fmt import format_table


@dataclass
class DynamicPartitionResult:
    """fw-dynamic: round-robin vs the LPT deal of the chunks (GFF)."""

    nodes_list: List[int]
    round_robin_s: List[float]
    dynamic_s: List[float]
    round_robin_imbalance: List[float]
    dynamic_imbalance: List[float]

    def render(self) -> str:
        rows = [
            [n, f"{rr:.0f}", f"{dy:.0f}", f"{ri:.2f}", f"{di:.2f}", f"{rr / dy:.2f}x"]
            for n, rr, dy, ri, di in zip(
                self.nodes_list,
                self.round_robin_s,
                self.dynamic_s,
                self.round_robin_imbalance,
                self.dynamic_imbalance,
            )
        ]
        return (
            "Future work — dynamic partitioning of GraphFromFasta chunks\n"
            + format_table(
                ["nodes", "round-robin (s)", "dynamic (s)", "RR imb", "dyn imb", "gain"],
                rows,
            )
            + "\n(paper SS:V.A: 'we might experiment with a dynamic partitioning"
            " strategy to reduce this load imbalance')"
        )


def run_dynamic_partition(
    nodes_list: Sequence[int] = (64, 128, 192),
    workload: Optional[ChrysalisWorkload] = None,
    seed: int = 0,
) -> DynamicPartitionResult:
    workload = workload if workload is not None else build_workload(seed=seed)
    rr = simulate_gff(nodes_list, workload, "round_robin")
    dy = simulate_gff(nodes_list, workload, "dynamic")
    return DynamicPartitionResult(
        list(nodes_list),
        [p.loop1_max + p.loop2_max for p in rr],
        [p.loop1_max + p.loop2_max for p in dy],
        [p.loop2_imbalance for p in rr],
        [p.loop2_imbalance for p in dy],
    )


@dataclass
class SerialRegionResult:
    """fw-serial-regions: sharded weldmer build vs redundant build."""

    nodes_list: List[int]
    shipped_total_s: List[float]
    sharded_total_s: List[float]
    shipped_share: List[float]
    sharded_share: List[float]

    def render(self) -> str:
        rows = [
            [n, f"{a:.0f}", f"{b:.0f}", f"{100 * sa:.1f}%", f"{100 * sb:.1f}%"]
            for n, a, b, sa, sb in zip(
                self.nodes_list,
                self.shipped_total_s,
                self.sharded_total_s,
                self.shipped_share,
                self.sharded_share,
            )
        ]
        return (
            "Future work — parallelizing GraphFromFasta's non-parallel regions\n"
            + format_table(
                ["nodes", "shipped total (s)", "sharded total (s)", "non-par share", "sharded share"],
                rows,
            )
        )


def sharded_setup(point: ScalingPoint, workload: ChrysalisWorkload) -> ScalingPoint:
    """A shipped GraphFromFasta point with its set-up sharded: each rank
    indexes ``1/nodes`` of the reads and contigs, then the tables (~4x the
    weld payload) are pooled with one more allgather."""
    n = point.nodes
    if n == 1:
        return point
    return ScalingPoint.of(n, **{
        **point.phases,
        "comm": point.comm_max + NETWORK.allgatherv(n, 4 * workload.weld_payload_bytes),
        "setup": point.setup_max / n,
    })


def run_serial_regions(
    nodes_list: Sequence[int] = (16, 64, 128, 192),
    workload: Optional[ChrysalisWorkload] = None,
    seed: int = 0,
) -> SerialRegionResult:
    workload = workload if workload is not None else build_workload(seed=seed)
    shipped = simulate_gff(nodes_list, workload)
    sharded = [sharded_setup(p, workload) for p in shipped]
    return SerialRegionResult(
        list(nodes_list),
        [p.total_s for p in shipped],
        [p.total_s for p in sharded],
        [1 - p.loops_share for p in shipped],
        [1 - p.loops_share for p in sharded],
    )


@dataclass
class StripedIoResult:
    """fw-striped-io: redundant full-file reads vs MPI-I/O stripes."""

    nodes_list: List[int]
    io_cost_s: float
    redundant_loop_s: List[float]
    striped_loop_s: List[float]

    def render(self) -> str:
        rows = [
            [n, f"{r:.0f}", f"{s:.0f}", f"{r / s:.2f}x"]
            for n, r, s in zip(self.nodes_list, self.redundant_loop_s, self.striped_loop_s)
        ]
        return (
            f"Future work — MPI-I/O striped reads (cold-storage read cost "
            f"{self.io_cost_s:.0f} s/file)\n"
            + format_table(["nodes", "redundant read (s)", "striped (s)", "gain"], rows)
            + "\n(with the paper's page-cached ~8 s read the strategies tie;"
            " striping pays off on cold or contended storage)"
        )


def striped_read_s(io_cost_s: float, nodes: int) -> float:
    """A rank's read of the reads file under MPI-I/O: its own stripe, plus
    the collective ``MPI_File_open`` and view set-up."""
    return io_cost_s / nodes + 0.5


def run_striped_io(
    nodes_list: Sequence[int] = (4, 16, 32, 64),
    io_cost_s: float = 120.0,
    workload: Optional[ChrysalisWorkload] = None,
    seed: int = 0,
) -> StripedIoResult:
    workload = workload if workload is not None else build_workload(seed=seed)
    redundant = [p.loop_max for p in simulate_rtt(nodes_list, workload, io_cost_s)]
    striped = [
        simulate_rtt([n], workload, striped_read_s(io_cost_s, n))[0].loop_max
        for n in nodes_list
    ]
    return StripedIoResult(list(nodes_list), io_cost_s, redundant, striped)
