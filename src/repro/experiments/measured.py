"""The measured line of the ``fig-*`` experiments: one stage-table row
launched at several rank counts on the same inputs.

It is the walk ``benchmarks/test_bench_stage_scaling.py`` makes, minus
its timing rounds: :func:`repro.parallel.driver.run_chain` up to the
row, its upstream rows launched once at one rank, under the driver's
shipped :class:`~repro.parallel.driver.ParallelTrinityConfig`.  Every
launch reports its *virtual* makespan, so a line compares numbers on
one clock, and is the best of :data:`ROUNDS` launches: a launch of a
few virtual ms reads a cyclic-GC pass or a CPU switch as compute, and
the fastest of three is the one with the fewest.  Equality with the
serial stages is owned by the integration suites
(``tests/integration/test_mpi_*.py``); a line checks only that more
ranks (or the other deal) change nothing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.mpi.launcher import mpirun
from repro.obs.result import StageResult
from repro.parallel.driver import ParallelTrinityConfig, StageChain, run_chain
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig

#: Rank count of the measured lines' distributed launches.
REAL_NPROCS = 8

#: Launches per measured point; the point is the lowest virtual makespan.
ROUNDS = 3


def row_runs(
    key: str, recipe: str, seed: int, nprocs: Sequence[int],
    strategies: Sequence[str] = (ParallelTrinityConfig.butterfly_strategy,),
) -> Tuple[StageChain, List[Dict[int, StageResult]]]:
    """The walk up to row ``key``, and the row's best launch (of
    :data:`ROUNDS`, by virtual makespan) at each rank count in ``nprocs``
    under each deal in ``strategies`` (one dict by rank count per deal,
    in order).

    The inputs are ``recipe``'s reads at ``seed`` (also the
    ``TrinityConfig`` seed); every other setting is the driver's default.
    """
    _txome, pairs = get_recipe(recipe).materialize(seed=seed)
    cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=seed))
    runs: List[Dict[int, StageResult]] = []

    def launch(row, inputs, config):
        if row.key != key:
            return mpirun(row.fn, 1, inputs, config, network=cfg.network)
        for strategy in strategies:
            dealt = row.config(replace(cfg, butterfly_strategy=strategy), None)
            runs.append({
                p: min(
                    (mpirun(row.fn, p, inputs, dealt, network=cfg.network) for _ in range(ROUNDS)),
                    key=lambda run: run.makespan,
                )
                for p in nprocs
            })
        return runs[0][nprocs[-1]]

    chain = run_chain(cfg, flatten_reads(pairs), launch, target=key)
    return chain, runs


def agree(runs: Iterable[StageResult], artefact: Callable[[Any], Any]) -> bool:
    """Whether every run's rank-0 outputs give the same ``artefact``."""
    first, *rest = (artefact(run.outputs[0].outputs) for run in runs)
    return all(other == first for other in rest)
