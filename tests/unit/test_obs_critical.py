"""Critical-path attribution: compute+wait+comm provably sums to makespan."""

import pytest

from repro.errors import ObsError
from repro.mpi import mpirun
from repro.obs import critical_path, verify_attribution
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count


@pytest.fixture(scope="module")
def stage_inputs(smoke_reads):
    counts = jellyfish_count(smoke_reads, 25).filtered(2)  # the solid table
    contigs = inchworm_assemble(counts, InchwormConfig(seed=1))
    return contigs, smoke_reads


def _traced_run(stage_inputs, nprocs):
    contigs, reads = stage_inputs
    return mpirun(
        mpi_graph_from_fasta,
        nprocs,
        GffInputs(contigs=contigs, reads=reads),
        GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2),
        trace=True,
    )


class TestAttribution:
    @pytest.mark.parametrize("nprocs", [1, 4, 8])
    def test_totals_equal_makespan_within_tolerance(self, stage_inputs, nprocs):
        run = _traced_run(stage_inputs, nprocs)
        residuals = verify_attribution(run, tol=1e-9)
        assert len(residuals) == nprocs
        report = critical_path(run)
        assert report.critical.total == pytest.approx(run.makespan, abs=1e-9)
        for rank_breakdown, elapsed in zip(report.ranks, run.elapsed):
            assert rank_breakdown.total == pytest.approx(elapsed, abs=1e-9)

    def test_untraced_run_rejected(self, stage_inputs):
        contigs, reads = stage_inputs
        run = mpirun(
            mpi_graph_from_fasta, 2,
            GffInputs(contigs=contigs, reads=reads),
            GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2),
        )
        with pytest.raises(ObsError):
            critical_path(run)


class TestReport:
    def test_serial_fraction_counts_marked_regions(self, stage_inputs):
        run = _traced_run(stage_inputs, 4)
        report = critical_path(run)
        # gff:setup / gff:weld_index / gff:components are serial=True phases.
        assert 0.0 < report.serial_time <= run.makespan + 1e-9
        assert 0.0 < report.serial_fraction <= 1.0

    def test_render_mentions_critical_rank_and_figure8(self, stage_inputs):
        run = _traced_run(stage_inputs, 4)
        report = critical_path(run, top_k=3)
        text = report.render()
        assert "critical rank" in text
        assert "Figure 8" in text
        assert len(report.top_spans) <= 3

    def test_imbalance_matches_result(self, stage_inputs):
        run = _traced_run(stage_inputs, 4)
        report = critical_path(run)
        assert report.imbalance == pytest.approx(run.imbalance)
