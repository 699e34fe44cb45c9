"""Pure-Python reimplementation of the Trinity assembly pipeline.

Four consecutive modules, exchanging data through files exactly like the
original (paper SS:II.A):

* :mod:`repro.trinity.jellyfish`  — k-mer counting (+ dump formats)
* :mod:`repro.trinity.inchworm`   — greedy contig assembly
* :mod:`repro.trinity.chrysalis`  — contig clustering + read assignment
  (Bowtie, GraphFromFasta, ReadsToTranscripts, FastaToDebruijn,
  QuantifyGraph)
* :mod:`repro.trinity.butterfly`  — transcript reconstruction

:mod:`repro.trinity.pipeline` runs them in order (the ``Trinity.pl``
equivalent), with :mod:`repro.trinity.config` holding what a run takes
and gives.  The order itself is said once, by the hybrid driver's stage
table (:data:`repro.parallel.driver.STAGE_TABLE`): each row carries an
MPI body — the paper's hybrid MPI+OpenMP stages, which reuse the kernels
defined here — and a serial body built from these kernels alone, which
the serial pipeline runs.  So the two runs share their wiring but not
their code paths, and the serial one stays the hybrid one's oracle.
"""

from repro.trinity.jellyfish import (
    JellyfishConfig,
    jellyfish_count,
    jellyfish_dump,
)
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.bowtie import BowtieIndex, scaffold_pairs_from_sam
from repro.trinity.butterfly import butterfly_assemble
from repro.trinity.config import TrinityConfig, TrinityResult
from repro.trinity.pipeline import TrinityPipeline

__all__ = [
    "JellyfishConfig",
    "jellyfish_count",
    "jellyfish_dump",
    "InchwormConfig",
    "inchworm_assemble",
    "BowtieIndex",
    "scaffold_pairs_from_sam",
    "butterfly_assemble",
    "TrinityConfig",
    "TrinityPipeline",
    "TrinityResult",
]
