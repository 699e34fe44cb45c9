"""Pure-Python reimplementation of the Trinity assembly pipeline.

Four consecutive modules, exchanging data through files exactly like the
original (paper SS:II.A):

* :mod:`repro.trinity.jellyfish`  — k-mer counting (+ dump formats)
* :mod:`repro.trinity.inchworm`   — greedy contig assembly
* :mod:`repro.trinity.chrysalis`  — contig clustering + read assignment
  (Bowtie, GraphFromFasta, ReadsToTranscripts, FastaToDebruijn,
  QuantifyGraph)
* :mod:`repro.trinity.butterfly`  — transcript reconstruction

:mod:`repro.trinity.pipeline` wires them together (the ``Trinity.pl``
equivalent).  The hybrid MPI+OpenMP versions of the Chrysalis substeps —
the paper's contribution — live in :mod:`repro.parallel` and reuse the
kernels defined here, so serial and parallel code paths cannot drift
apart.
"""

from repro.trinity.jellyfish import (
    JellyfishConfig,
    JellyfishCounts,
    jellyfish_count,
    jellyfish_dump,
)
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.bowtie import BowtieIndex, scaffold_pairs_from_sam
from repro.trinity.butterfly import butterfly_assemble
from repro.trinity.pipeline import TrinityConfig, TrinityPipeline, TrinityResult

__all__ = [
    "JellyfishConfig",
    "JellyfishCounts",
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
