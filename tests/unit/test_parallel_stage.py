"""Unit tests for the ParallelStage protocol and its registry."""

import inspect
from dataclasses import dataclass

import pytest

from repro.errors import PipelineError
from repro.obs.result import StageResult
from repro.parallel.stage import STAGE_PARAMS, STAGES, ParallelStage, parallel_stage

# Importing the package registers every shipped stage.
import repro.parallel  # noqa: F401


@dataclass(frozen=True)
class _Inputs:
    """Test inputs bundle."""

    value: int = 0


@dataclass(frozen=True)
class _Config:
    """Test config bundle."""

    knob: int = 1


@dataclass
class _Outputs:
    """Test outputs bundle."""

    value: int


class TestRegistry:
    def test_all_shipped_stages_registered(self):
        """Six stages, six bodies: no variant rides along in the registry
        (walk-only Butterfly is an input of chrysalis-backend)."""
        assert sorted(STAGES) == [
            "bowtie", "chrysalis-backend", "gff", "inchworm", "jellyfish", "rtt",
        ]

    def test_every_stage_conforms_to_protocol(self):
        for name, spec in STAGES.items():
            assert isinstance(spec.fn, ParallelStage), name
            params = list(inspect.signature(spec.fn).parameters)
            assert tuple(params) == STAGE_PARAMS, name
            assert spec.fn.stage_spec is spec

    def test_specs_carry_dataclass_bundle_types(self):
        from dataclasses import is_dataclass

        for name, spec in STAGES.items():
            assert is_dataclass(spec.inputs_type), name
            assert is_dataclass(spec.config_type), name
            assert is_dataclass(spec.outputs_type), name

    def test_stage_runs_with_default_config(self, smoke_reads=None):
        # Every stage must accept config=None (the decorator enforces the
        # default at registration; this exercises one body end to end).
        from repro.mpi import mpirun
        from repro.parallel.mpi_chrysalis_backend import (
            ChrysalisBackendInputs,
            mpi_chrysalis_backend,
        )

        empty = ChrysalisBackendInputs(
            contigs=(), reads=(), components=(), assignments=()
        )
        run = mpirun(mpi_chrysalis_backend, 2, empty)
        assert run.outputs[0].transcripts == []


class TestDecorator:
    def _body(self):
        def stage(comm, inputs, config=None):
            return StageResult(stage="x", outputs=_Outputs(value=inputs.value))

        return stage

    def test_registers_and_tags(self):
        fn = parallel_stage(
            "test-ok", inputs=_Inputs, config=_Config, outputs=_Outputs
        )(self._body())
        try:
            assert STAGES["test-ok"].fn is fn
            assert fn.stage_spec.name == "test-ok"
        finally:
            del STAGES["test-ok"]

    def test_duplicate_name_rejected(self):
        deco = parallel_stage(
            "test-dup", inputs=_Inputs, config=_Config, outputs=_Outputs
        )
        deco(self._body())
        try:
            with pytest.raises(PipelineError, match="duplicate"):
                parallel_stage(
                    "test-dup", inputs=_Inputs, config=_Config, outputs=_Outputs
                )(self._body())
        finally:
            del STAGES["test-dup"]

    def test_wrong_signature_rejected(self):
        def bad(comm, reads, config=None):
            return StageResult(stage="x")

        with pytest.raises(PipelineError, match="signature"):
            parallel_stage(
                "test-sig", inputs=_Inputs, config=_Config, outputs=_Outputs
            )(bad)
        assert "test-sig" not in STAGES

    def test_config_without_none_default_rejected(self):
        def bad(comm, inputs, config):
            return StageResult(stage="x")

        with pytest.raises(PipelineError, match="default"):
            parallel_stage(
                "test-def", inputs=_Inputs, config=_Config, outputs=_Outputs
            )(bad)
        assert "test-def" not in STAGES

    def test_non_dataclass_bundle_rejected(self):
        with pytest.raises(PipelineError, match="dataclass"):
            parallel_stage(
                "test-bundle", inputs=dict, config=_Config, outputs=_Outputs
            )(self._body())
        assert "test-bundle" not in STAGES
