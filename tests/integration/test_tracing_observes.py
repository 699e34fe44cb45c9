"""Tracing observes a run and never changes it.

Every ``STAGE_TABLE`` row at three ranks on the smoke recipe, launched
traced and untraced over the same inputs: the rank clock that records the
traced run's compute / wait / comm spans is the clock of the untraced run,
so outputs, phase and fault spans and comm counts agree; the traced spans
tile each rank's timeline exactly, with a straggler too; and a timed
crash keeps the crashing rank's spans up to the crash instant.
"""

import pickle

import pytest

from repro.errors import MpiAbortError, RankCrash
from repro.mpi import CrashFault, FaultPlan, StragglerFault, mpirun
from repro.obs import CLOCK_KINDS, verify_attribution
from repro.obs.critical import rank_clock_spans
from repro.parallel.driver import STAGE_TABLE, ParallelTrinityConfig, run_chain
from repro.trinity import TrinityConfig

NPROCS = 3


@pytest.fixture(scope="module")
def cfg():
    return ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=NPROCS, nthreads=2)


@pytest.fixture(scope="module")
def chain(cfg, smoke_reads):
    """The six stages, untraced: each row's inputs."""
    return run_chain(
        cfg, smoke_reads, lambda row, inputs, config: mpirun(row.fn, NPROCS, inputs, config)
    )


def _marks(run):
    """(kind, label, track) of every span the clock does not record."""
    return [(s.kind, s.label, s.track) for s in run.spans if s.kind not in CLOCK_KINDS]


@pytest.mark.timeout(300)
@pytest.mark.parametrize("row", STAGE_TABLE, ids=lambda row: row.key)
def test_tracing_observes_never_changes(chain, cfg, row):
    inputs, config = row.inputs(chain), row.config(cfg, None)

    plain = mpirun(row.fn, NPROCS, inputs, config)
    traced = mpirun(row.fn, NPROCS, inputs, config, trace=True)
    assert [pickle.dumps(out.outputs) for out in traced.outputs] == [
        pickle.dumps(out.outputs) for out in plain.outputs
    ]
    assert _marks(traced) == _marks(plain)
    assert not [s for s in plain.spans if s.kind in CLOCK_KINDS]
    for count in ("bytes_sent", "n_collectives"):
        assert traced.metrics[count] == plain.metrics[count]

    # Each rank's clock spans tile [0, elapsed]: in time order, no overlap.
    for spans, end in zip(rank_clock_spans(traced), traced.elapsed):
        assert spans[0].start == 0.0 and spans[-1].stop == end
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
        assert sum(s.duration for s in spans) == pytest.approx(end, abs=1e-9)

    slow = mpirun(
        row.fn, NPROCS, inputs, config, trace=True,
        faults=FaultPlan(stragglers=(StragglerFault(rank=1, slowdown=3),)),
    )
    assert max(verify_attribution(slow, tol=1e-9)) <= 1e-9

    # Compute windows are charged at measured host time, which varies run
    # to run; comm costs come from the network model and do not, so every
    # run of rank 1 passes half its comm time.
    comm_s = sum(s.duration for s in rank_clock_spans(traced)[1] if s.kind == "comm")
    assert comm_s > 0
    at = comm_s / 2
    with pytest.raises(MpiAbortError) as ei:
        mpirun(
            row.fn, NPROCS, inputs, config, trace=True,
            faults=FaultPlan(crashes=(CrashFault(rank=1, at_time=at),)),
        )
    assert isinstance(ei.value.__cause__, RankCrash)
    crashed = [s for s in ei.value.spans if s.kind in CLOCK_KINDS and s.track == "rank 1"]
    assert crashed and crashed[-1].stop == at
    assert sum(s.duration for s in crashed) == pytest.approx(at, abs=1e-9)
