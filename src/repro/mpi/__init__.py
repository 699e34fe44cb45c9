"""Simulated MPI: a deterministic, thread-backed SPMD runtime.

The API mirrors mpi4py's communicator surface (lower-case generic-object
methods, mpi4py-style semantics) so the parallel Chrysalis code reads like
the hybrid code the paper describes.  Rank-local computation is executed
for real; *time* is virtual — each rank carries a :class:`VirtualClock`
advanced by modelled compute and by an alpha-beta (latency-bandwidth)
communication cost at every collective.

Why not real mpi4py: the repro runs on one machine and must model
16-192-node clusters; virtual clocks make the cluster size a parameter
rather than hardware.
"""

from repro.mpi.clock import TracingClock, VirtualClock
from repro.mpi.network import NetworkModel, IDATAPLEX_FDR10
from repro.mpi.comm import SimComm, CommStats
from repro.mpi.faults import (
    CrashFault,
    FaultPlan,
    FaultyClock,
    FlakyIO,
    RankFaultInjector,
    StragglerFault,
)
from repro.mpi.launcher import mpirun
from repro.mpi.datatypes import pack_strings, unpack_strings, nbytes_of
from repro.mpi.trace import RankTrace, render_gantt, trace_summary
from repro.obs.result import StageResult
from repro.obs.span import Span

__all__ = [
    "VirtualClock",
    "TracingClock",
    "NetworkModel",
    "IDATAPLEX_FDR10",
    "SimComm",
    "CommStats",
    "CrashFault",
    "StragglerFault",
    "FlakyIO",
    "FaultPlan",
    "FaultyClock",
    "RankFaultInjector",
    "mpirun",
    "StageResult",
    "Span",
    "pack_strings",
    "unpack_strings",
    "nbytes_of",
    "RankTrace",
    "render_gantt",
    "trace_summary",
]
