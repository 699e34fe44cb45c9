"""Test helper: a Jellyfish counter through the per-thread queue kernel.

Spells out what ``mpi_inchworm``'s assemble region does on one rank —
component setup, LPT deal of the owned components to the simulated
threads, one ``seed_queues`` pass, ``assemble_queue`` per thread — so
unit and property tests can drive the kernel without an ``mpirun``.
"""

from typing import List, Optional, Sequence

from repro.parallel.component_stage import lpt_assign
from repro.parallel.mpi_inchworm import component_setup
from repro.trinity.inchworm import InchwormConfig, assemble_queue, probe, seed_queues
from repro.seq.kmer_index import KmerCounter


def assemble_components(
    filtered: KmerCounter,
    cfg: Optional[InchwormConfig] = None,
    n_threads: int = 1,
    owned: Optional[Sequence[int]] = None,
) -> List[tuple]:
    """The keyed contigs of all of ``filtered``'s components (or just the
    ``owned`` ids) on one rank, pooled over its threads."""
    cfg = cfg or InchwormConfig()
    landing, ids, costs = component_setup(filtered, [probe(filtered)])
    mine = list(range(len(costs))) if owned is None else list(owned)
    teams = lpt_assign([float(costs[c]) for c in mine], mine, n_threads)
    return [
        contig
        for queue in seed_queues(filtered, cfg, ids, teams)
        for contig in assemble_queue(filtered, cfg, landing, queue)
    ]
