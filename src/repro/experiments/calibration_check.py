"""calibration-check: is the cost model's shape assumption true of the code?

The scaling replays (Figs 7-8) model loop costs as proportional to contig
length.  Here we *measure* the real kernels per contig on a miniature run
and fit both a power law (``cost ~ len^alpha``) and an affine model
(``cost = c0 + c1*len``).  The replay assumption is validated when the
affine fit is good with a positive per-base cost ``c1``: at paper-scale
lengths the ``c1*len`` term dominates and the cost vector is effectively
length-proportional.  (A naive power-law alpha < 1 at miniature lengths
is the per-call overhead ``c0`` talking, not a sub-linear algorithm.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.empirical import (
    AffineFit,
    PowerLawFit,
    fit_affine,
    fit_power_law,
    measure_gff_item_costs,
)
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count
from repro.util.fmt import format_table

#: Median sampled contig length of the sugarbeet-paper workload; where
#: the overhead share is evaluated for the verdict.
PAPER_SCALE_LENGTH = 450.0 * 16  # overhead must be minor well below max lengths


@dataclass
class CalibrationCheckResult:
    dataset: str
    n_contigs: int
    loop1_power: PowerLawFit
    loop2_power: PowerLawFit
    loop1_affine: AffineFit
    loop2_affine: AffineFit

    @property
    def assumption_holds(self) -> bool:
        """Positive marginal per-base cost, good affine fit, and fixed
        overhead minor at paper-scale lengths."""
        return (
            self.loop1_affine.c1 > 0
            and self.loop1_affine.r_squared > 0.5
            and self.loop1_affine.overhead_fraction(PAPER_SCALE_LENGTH) < 0.5
        )

    def render(self) -> str:
        table = format_table(
            ["kernel", "power alpha", "affine c1 (s/base)", "affine R^2", "overhead@7.2kb"],
            [
                [
                    "loop 1 (weld harvest)",
                    f"{self.loop1_power.alpha:.2f}",
                    f"{self.loop1_affine.c1:.2e}",
                    f"{self.loop1_affine.r_squared:.2f}",
                    f"{100 * self.loop1_affine.overhead_fraction(PAPER_SCALE_LENGTH):.0f}%",
                ],
                [
                    "loop 2 (pair check)",
                    f"{self.loop2_power.alpha:.2f}",
                    f"{self.loop2_affine.c1:.2e}",
                    f"{self.loop2_affine.r_squared:.2f}",
                    f"{100 * self.loop2_affine.overhead_fraction(PAPER_SCALE_LENGTH):.0f}%",
                ],
            ],
        )
        verdict = (
            "length-proportional cost holds at paper scale"
            if self.assumption_holds
            else "ASSUMPTION VIOLATED — revisit the workload model"
        )
        return (
            f"Calibration check — measured kernel cost vs contig length "
            f"({self.dataset}, {self.n_contigs} contigs)\n{table}\n=> {verdict}"
        )


def run(dataset: str = "whitefly-mini", seed: int = 0) -> CalibrationCheckResult:
    _txome, pairs = get_recipe(dataset).materialize(seed=seed)
    reads = flatten_reads(pairs)
    counts = jellyfish_count(reads, 25).filtered(2)  # the pipeline's solid table
    contigs = inchworm_assemble(counts, InchwormConfig(seed=seed))
    sample = measure_gff_item_costs(contigs, reads, GraphFromFastaConfig(k=24))
    return CalibrationCheckResult(
        dataset=dataset,
        n_contigs=len(contigs),
        loop1_power=fit_power_law(sample.lengths, sample.loop1_s),
        loop2_power=fit_power_law(sample.lengths, sample.loop2_s),
        loop1_affine=fit_affine(sample.lengths, sample.loop1_s),
        loop2_affine=fit_affine(sample.lengths, sample.loop2_s),
    )
