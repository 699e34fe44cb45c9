"""Simulated OpenMP: the dynamic loop schedule of a thread team.

Work items are executed for real (serially, so results are deterministic);
the *time* a team of ``n_threads`` would take is simulated from per-item
costs with an event queue — dynamic scheduling is exactly "the next free
thread takes the next item".  A rank's team is charged through
:meth:`repro.mpi.comm.SimComm.compute` (``threads=``) and
:meth:`~repro.mpi.comm.SimComm.map`.
"""

from repro.openmp.schedule import dynamic_makespan

__all__ = [
    "dynamic_makespan",
]
