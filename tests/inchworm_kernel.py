"""Test helper: a Jellyfish counter through the component kernel.

Spells out what ``mpi_inchworm``'s assemble region does on one rank —
component setup, LPT deal of the owned components to the simulated
threads, one kernel call — so unit and property tests can drive
``inchworm_assemble_components`` without an ``mpirun``.
"""

from typing import Optional, Sequence

from repro.parallel.component_stage import lpt_assign
from repro.parallel.mpi_inchworm import _component_setup
from repro.trinity.inchworm import (
    ComponentAssembly,
    InchwormConfig,
    inchworm_assemble_components,
    neighbours,
)
from repro.trinity.jellyfish import JellyfishCounts


def assemble_components(
    counts: JellyfishCounts,
    cfg: Optional[InchwormConfig] = None,
    n_threads: int = 1,
    owned: Optional[Sequence[int]] = None,
) -> ComponentAssembly:
    """All of ``counts``' components (or just the ``owned`` ids) on one rank."""
    cfg = cfg or InchwormConfig()
    filtered = counts.index.filtered(cfg.min_kmer_count)
    landing, ids, costs = _component_setup(filtered, [neighbours(filtered, counts.canonical)])
    mine = list(range(len(costs))) if owned is None else list(owned)
    teams = lpt_assign([float(costs[c]) for c in mine], mine, n_threads)
    return inchworm_assemble_components(
        filtered, counts.canonical, cfg, landing, ids, teams
    )
