"""Simulated OpenMP: thread teams under the dynamic loop schedule.

Work items are executed for real (serially, so results are deterministic);
the *time* a team of ``n_threads`` would take is simulated from per-item
costs with an event queue — dynamic scheduling is exactly "the next free
thread takes the next item".
"""

from repro.openmp.schedule import dynamic_makespan
from repro.openmp.team import ThreadTeam, TeamResult

__all__ = [
    "dynamic_makespan",
    "ThreadTeam",
    "TeamResult",
]
