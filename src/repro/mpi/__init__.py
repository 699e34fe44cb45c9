"""Simulated MPI: a deterministic, thread-backed SPMD runtime.

The communicator offers the operations the stage bodies call — barrier,
bcast, allgather(v), alltoall and a rank-shared set-up cache — spelled
like mpi4py's lower-case generic-object methods, so the parallel
Chrysalis code reads like the hybrid code the paper describes.
Rank-local computation is executed for real; *time* is virtual — each
rank carries one :class:`VirtualClock`, advanced by modelled compute and
by an alpha-beta (latency-bandwidth) communication cost at every
collective, which also records the rank's trace spans and injects its
faults.

Why not real mpi4py: the repro runs on one machine and must model
16-192-node clusters; virtual clocks make the cluster size a parameter
rather than hardware.
"""

from repro.mpi.clock import VirtualClock
from repro.mpi.network import NetworkModel, IDATAPLEX_FDR10
from repro.mpi.comm import SimComm, CommStats
from repro.mpi.faults import (
    CrashFault,
    FaultPlan,
    FlakyIO,
    RankFaultInjector,
    StragglerFault,
)
from repro.mpi.launcher import mpirun
from repro.mpi.datatypes import pack_strings, unpack_strings, nbytes_of
from repro.obs.result import StageResult
from repro.obs.span import Span

__all__ = [
    "VirtualClock",
    "NetworkModel",
    "IDATAPLEX_FDR10",
    "SimComm",
    "CommStats",
    "CrashFault",
    "StragglerFault",
    "FlakyIO",
    "FaultPlan",
    "RankFaultInjector",
    "mpirun",
    "StageResult",
    "Span",
    "pack_strings",
    "unpack_strings",
    "nbytes_of",
]
