"""The ``ParallelStage`` protocol: one calling convention for MPI stages.

Every distributed stage body in :mod:`repro.parallel` is a plain function

    ``stage(comm, inputs, config=None) -> StageResult``

run under :func:`repro.mpi.mpirun`:

* ``comm`` — the rank's :class:`~repro.mpi.comm.SimComm`;
* ``inputs`` — a frozen ``*Inputs`` dataclass holding the workload data
  (reads, contigs, component graphs, …), identical on every rank;
* ``config`` — a frozen ``*StageConfig`` dataclass holding everything
  tunable (the serial kernel's config plus distribution knobs such as
  ``nthreads``/``strategy``), defaulting to the stage's
  baseline when ``None``;
* the return is a :class:`~repro.obs.result.StageResult` whose
  ``outputs`` is a typed ``*Outputs`` dataclass.

Keeping data and knobs in separate typed bundles is what lets the driver
describe every stage as one row of a table
(:data:`repro.parallel.driver.STAGE_TABLE`) and launch all of them
through one code path (``run_chain`` -> the driver's ``launch``), lets
recovery relaunch a stage on fewer ranks without re-plumbing arguments,
and lets checkpointing key a stage result by ``repr(config)`` plus the
content digests of what it read — the protocol is the contract all of
those rely on.

Stages register themselves with the :func:`parallel_stage` decorator,
which validates the signature at import time and records a
:class:`StageSpec` in :data:`STAGES`; the conformance test walks the
registry so a new stage cannot ship with an ad-hoc signature unnoticed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, is_dataclass
from typing import Any, Callable, Dict, Protocol, Type, runtime_checkable

from repro.errors import PipelineError
from repro.mpi.comm import SimComm
from repro.obs.result import StageResult

#: The exact parameter names every stage body must declare, in order.
STAGE_PARAMS = ("comm", "inputs", "config")


@runtime_checkable
class ParallelStage(Protocol):
    """Structural type of a conforming SPMD stage body."""

    def __call__(
        self, comm: SimComm, inputs: Any, config: Any = None
    ) -> StageResult: ...  # pragma: no cover - protocol stub


@dataclass(frozen=True)
class StageSpec:
    """Registry record for one conforming stage."""

    name: str  # registry key, e.g. "rtt"
    fn: ParallelStage
    inputs_type: Type[Any]
    config_type: Type[Any]
    outputs_type: Type[Any]


#: All registered stages, keyed by stage name (filled at import time by
#: :func:`parallel_stage`; importing :mod:`repro.parallel` registers the
#: full set).
STAGES: Dict[str, StageSpec] = {}


def parallel_stage(
    name: str,
    *,
    inputs: Type[Any],
    config: Type[Any],
    outputs: Type[Any],
) -> Callable[[Callable[..., StageResult]], Callable[..., StageResult]]:
    """Register ``fn`` as a :class:`ParallelStage`, validating its shape.

    Raises :class:`~repro.errors.PipelineError` at import time if the
    signature deviates from ``(comm, inputs, config=None)``, if any of
    the three bundle types is not a dataclass, or if ``name`` is already
    taken — the failure modes that would otherwise surface as confusing
    launch-time TypeErrors.
    """
    for role, typ in (("inputs", inputs), ("config", config), ("outputs", outputs)):
        if not (isinstance(typ, type) and is_dataclass(typ)):
            raise PipelineError(
                f"stage {name!r}: {role} type {typ!r} must be a dataclass"
            )

    def deco(fn: Callable[..., StageResult]) -> Callable[..., StageResult]:
        params = list(inspect.signature(fn).parameters.values())
        if tuple(p.name for p in params) != STAGE_PARAMS:
            raise PipelineError(
                f"stage {name!r}: signature must be {STAGE_PARAMS}, got "
                f"{tuple(p.name for p in params)}"
            )
        if params[2].default is not None:
            raise PipelineError(f"stage {name!r}: config must default to None")
        if name in STAGES:
            raise PipelineError(f"duplicate ParallelStage name {name!r}")
        spec = StageSpec(
            name=name, fn=fn, inputs_type=inputs, config_type=config,
            outputs_type=outputs,
        )
        STAGES[name] = spec
        fn.stage_spec = spec  # type: ignore[attr-defined]
        return fn

    return deco
