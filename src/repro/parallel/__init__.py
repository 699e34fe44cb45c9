"""The paper's contribution: hybrid MPI+OpenMP Chrysalis + MPI Bowtie.

Every module here runs on the simulated MPI runtime (:mod:`repro.mpi`)
and reuses the serial kernels from :mod:`repro.trinity`, so the parallel
code paths compute real results whose equivalence to the serial pipeline
is tested — while per-rank virtual clocks provide the cluster-scale
timing the paper's Figures 7-11 report.

All distributed stages share one calling convention,
``stage(comm, inputs, config=None) -> StageResult`` with typed
``*Inputs`` / ``*StageConfig`` / ``*Outputs`` dataclasses, and each is one
row of the driver's :data:`~repro.parallel.driver.STAGE_TABLE`;
:data:`STAGES` is those rows keyed by stage name.  Each submodule also
holds its stage's serial body (``serial_<stage>``, from the serial
kernels alone): what the serial pipeline runs and the MPI body equals.

* :mod:`repro.parallel.chunks` — the chunked round-robin distribution
  (paper Fig 3).
* :mod:`repro.parallel.component_stage` — the one deal -> kernel ->
  keyed-merge skeleton (round-robin / LPT deal, allgather + key-ordered
  flatten, part writes) the component-parallel stages plug their kernels
  into, and the one merged-file writer every stage shares: each rank
  writes its rendered piece at its offset.
* :mod:`repro.parallel.mpi_jellyfish` — distributed Jellyfish k-mer
  counting (deal -> alltoall exchange -> owner merge; HipMer-style
  distributed k-mer analysis over the DSK partition hash).
* :mod:`repro.parallel.mpi_inchworm` — distributed Inchworm over the
  connected components of the k-mer overlap graph
  (:mod:`repro.trinity.kmer_components`), hybrid MPI x threads: the
  extension probe is dealt in position blocks, each rank builds
  successor rows for the components it owns and walks them by lookup,
  and the merge re-emits the exact global seed order.
* :mod:`repro.parallel.mpi_bowtie` — PyFasta-split Bowtie (SS:III.A).
* :mod:`repro.parallel.mpi_graph_from_fasta` — hybrid loops 1+2 with
  Allgatherv pooling (SS:III.B), plus the sharded read weldmer scan
  (the paper's SS:VI future work, shipped).
* :mod:`repro.parallel.mpi_reads_to_transcripts` — redundant-read
  streaming assignment (SS:III.C).
* :mod:`repro.parallel.mpi_chrysalis_backend` — the fused Chrysalis
  back end: orient + FastaToDebruijn + QuantifyGraph + Butterfly per
  component on its owner rank, so graphs never cross the wire and the
  driver's two serial middle regions disappear (walk-only distributed
  Butterfly is this stage on contig-only inputs).
* :mod:`repro.parallel.recovery` — transient-fault retry (a fixed
  backoff budget) and crash recovery (one knob, ``max_rank_losses``)
  over the fault-injected runtime (:mod:`repro.mpi.faults`).
* :mod:`repro.parallel.driver` — ``Trinity.pl --nprocs`` equivalent: the
  six-stage table (the stage registry) and the one chain function that
  walks it, for the serial pipeline and the hybrid driver alike.
* :mod:`repro.parallel.scaling` — calibrated paper-scale replays that
  regenerate the scaling figures.
"""

from repro.parallel.chunks import chunk_ranges, chunks_for_rank
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieOutputs, BowtieStageConfig
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendInputs,
    ChrysalisBackendOutputs,
    ChrysalisBackendStageConfig,
)
from repro.parallel.mpi_inchworm import InchwormInputs, InchwormOutputs, InchwormStageConfig
from repro.parallel.mpi_graph_from_fasta import GffInputs, GffStageConfig
from repro.parallel.mpi_jellyfish import JellyfishInputs, JellyfishOutputs, JellyfishStageConfig
from repro.parallel.mpi_reads_to_transcripts import RttInputs, RttOutputs, RttStageConfig
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaResult
from repro.parallel.recovery import mpirun_with_recovery, with_retry
from repro.parallel.driver import STAGES, ParallelTrinityConfig, ParallelTrinityDriver

__all__ = [
    "STAGES",
    "mpirun_with_recovery",
    "with_retry",
    "chunk_ranges",
    "chunks_for_rank",
    "BowtieInputs",
    "BowtieOutputs",
    "BowtieStageConfig",
    "ChrysalisBackendInputs",
    "ChrysalisBackendOutputs",
    "ChrysalisBackendStageConfig",
    "GffInputs",
    "GffStageConfig",
    "GraphFromFastaResult",
    "InchwormInputs",
    "InchwormOutputs",
    "InchwormStageConfig",
    "JellyfishInputs",
    "JellyfishOutputs",
    "JellyfishStageConfig",
    "RttInputs",
    "RttOutputs",
    "RttStageConfig",
    "ParallelTrinityConfig",
    "ParallelTrinityDriver",
]
