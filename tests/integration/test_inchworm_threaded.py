"""Integration tests for threaded Inchworm: the acceptance criteria.

* The component kernel is *byte-identical* to the serial reference on
  the whitefly-mini dataset at every thread count (threads own whole
  k-mer-graph components, so they move clocks, never contig boundaries;
  the generated-input version of this lives in
  ``tests/property/test_inchworm_components_prop.py``).
* Fault plans reach the threaded Inchworm through the parallel driver:
  a straggling rank stretches the Inchworm stage's clock without
  changing the assembly, and a crashed MPI stage still recovers to
  identical output.
"""

import pytest

from repro.mpi import CrashFault, FaultPlan
from repro.mpi.faults import StragglerFault
from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import ParallelTrinityConfig
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble, keyed_contigs
from repro.trinity.jellyfish import jellyfish_count
from tests import reference_inchworm
from tests.inchworm_kernel import assemble_components

ASSEMBLY_K = 25


@pytest.fixture(scope="module")
def counts0():
    _txome, pairs = get_recipe("whitefly-mini").materialize(seed=0)
    return jellyfish_count(flatten_reads(pairs), ASSEMBLY_K).filtered(2)  # the solid table


class TestSingleThreadByteIdentity:
    """Acceptance: kernel(n_threads=t, seed=s) == serial(seed=s)."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_whitefly_byte_identical(self, counts0, seed):
        cfg = InchwormConfig(seed=seed)
        serial = inchworm_assemble(counts0, cfg)
        # Both are table walks: the per-step oracle says what "serial" is.
        assert serial == reference_inchworm.inchworm_assemble(counts0, cfg)
        for n_threads in (1, 4):
            res = assemble_components(counts0, cfg, n_threads=n_threads)
            assert [(c.name, c.seq, c.coverage) for c in serial] == [
                (c.name, c.seq, c.coverage) for c in keyed_contigs(res)
            ]

    def test_strand_specific_counts_equal_the_oracle(self):
        # Directed k-mers: one orientation per row, no canonical partner.
        _txome, pairs = get_recipe("whitefly-mini").materialize(seed=0)
        counts = jellyfish_count(flatten_reads(pairs), ASSEMBLY_K, canonical=False).filtered(2)
        cfg = InchwormConfig(seed=3)
        oracle = reference_inchworm.inchworm_assemble(counts, cfg)
        assert oracle and inchworm_assemble(counts, cfg) == oracle
        assert keyed_contigs(assemble_components(counts, cfg, n_threads=4)) == oracle


@pytest.fixture(scope="module")
def fault_free_driver_run(smoke_reads):
    driver = ParallelTrinityDriver(
        ParallelTrinityConfig(
            trinity=TrinityConfig(seed=1, inchworm_threads=4), nprocs=4, nthreads=4
        )
    )
    return driver.run(smoke_reads)


class TestFaultPlansReachInchworm:
    @pytest.mark.timeout(120)
    def test_straggler_slows_threads_not_results(
        self, smoke_reads, fault_free_driver_run
    ):
        plan = FaultPlan(stragglers=(StragglerFault(rank=0, slowdown=4.0),))
        driver = ParallelTrinityDriver(
            ParallelTrinityConfig(
                trinity=TrinityConfig(seed=1, inchworm_threads=4), nprocs=4,
                nthreads=4, faults=plan,
            )
        )
        slowed = driver.run(smoke_reads)
        base = fault_free_driver_run
        assert sorted(t.seq for t in slowed.outputs.transcripts) == sorted(
            t.seq for t in base.outputs.transcripts
        )
        # The run records its Inchworm team size, and the straggling
        # rank's clock, threads and all, stretches the stage.
        assert slowed.metrics["inchworm_threads"] == 4.0
        assert (
            slowed.metrics["mpi.inchworm_makespan_s"]
            > base.metrics["mpi.inchworm_makespan_s"]
        )

    @pytest.mark.timeout(120)
    def test_crash_recovery_with_threaded_inchworm(
        self, smoke_reads, fault_free_driver_run
    ):
        plan = FaultPlan(
            crashes=(CrashFault(rank=3, phase="gff:loop1"),),
            stragglers=(StragglerFault(rank=1, slowdown=2.0),),
        )
        driver = ParallelTrinityDriver(
            ParallelTrinityConfig(
                trinity=TrinityConfig(seed=1, inchworm_threads=4), nprocs=4,
                nthreads=4, faults=plan,
            )
        )
        recovered = driver.run(smoke_reads)
        base = fault_free_driver_run
        assert sorted(t.seq for t in recovered.outputs.transcripts) == sorted(
            t.seq for t in base.outputs.transcripts
        )
        assert recovered.metrics["inchworm_threads"] == 4.0
