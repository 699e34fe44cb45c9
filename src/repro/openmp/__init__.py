"""Simulated OpenMP: thread teams with OpenMP-style loop schedules.

Work items are executed for real (serially, so results are deterministic);
the *time* a team of ``n_threads`` would take is simulated from per-item
costs with an event queue — dynamic scheduling is exactly "the next free
thread takes the next chunk".
"""

from repro.openmp.schedule import (
    Schedule,
    static_chunks,
    dynamic_makespan,
    guided_makespan,
    static_makespan,
    simulate_schedule,
)
from repro.openmp.team import ThreadTeam, TeamResult

__all__ = [
    "Schedule",
    "static_chunks",
    "dynamic_makespan",
    "guided_makespan",
    "static_makespan",
    "simulate_schedule",
    "ThreadTeam",
    "TeamResult",
]
