"""The abstract's headline numbers.

"We report speedups of about a factor of twenty for both GraphFromFasta
and ReadsToTranscripts ... we also use PyFasta to speed up Bowtie
execution by a factor of three ... Overall, we reduce the runtime of the
Chrysalis step of the Trinity workflow from over 50 hours to less than 5
hours for the sugarbeet dataset."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.costmodel import CALIBRATION
from repro.cluster.workload import build_workload
from repro.experiments import paper
from repro.parallel.scaling import (
    gff_serial_baseline_s,
    rtt_serial_baseline_s,
    simulate_bowtie,
    simulate_gff,
    simulate_rtt,
)
from repro.util.fmt import format_table


@dataclass
class HeadlineResult:
    gff_speedup: float  # @192 nodes vs serial
    rtt_speedup: float  # @32 nodes vs serial
    bowtie_speedup: float  # @128 nodes vs serial
    chrysalis_serial_h: float
    chrysalis_parallel_h: float

    def render(self) -> str:
        table = format_table(
            ["headline claim", "modelled", "paper"],
            [
                ["GraphFromFasta speedup", f"{self.gff_speedup:.1f}x", "~20x"],
                ["ReadsToTranscripts speedup", f"{self.rtt_speedup:.1f}x", "~20x (19.75)"],
                ["Bowtie speedup (incl. split)", f"{self.bowtie_speedup:.1f}x", "3x"],
                ["Chrysalis serial", f"{self.chrysalis_serial_h:.1f} h", ">50 h"],
                ["Chrysalis parallel (best configs)", f"{self.chrysalis_parallel_h:.1f} h", "<5 h"],
            ],
        )
        return f"Headline numbers (abstract)\n{table}"


def run(seed: int = 0) -> HeadlineResult:
    workload = build_workload(seed=seed)
    (gff,) = simulate_gff([192], workload)
    (rtt,) = simulate_rtt([32], workload)
    (bowtie,) = simulate_bowtie([128], paper.SUGARBEET_READS)
    serial_chrysalis = (
        gff_serial_baseline_s()
        + rtt_serial_baseline_s()
        + CALIBRATION.bowtie_serial_total_s
        + CALIBRATION.chrysalis_misc_serial_s
    )
    parallel_chrysalis = (
        gff.total_s + rtt.total_s + bowtie.total_s + CALIBRATION.chrysalis_misc_serial_s
    )
    return HeadlineResult(
        gff_speedup=gff_serial_baseline_s() / gff.total_s,
        rtt_speedup=rtt_serial_baseline_s() / rtt.total_s,
        bowtie_speedup=CALIBRATION.bowtie_serial_total_s / bowtie.total_s,
        chrysalis_serial_h=serial_chrysalis / 3600.0,
        chrysalis_parallel_h=parallel_chrysalis / 3600.0,
    )
