"""API-surface tests: public exports exist, errors form one hierarchy."""

import importlib

import pytest

import repro
import repro.parallel  # registers every shipped stage
from repro import errors
from repro.parallel.stage import STAGES


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_pipeline_exported(self):
        assert hasattr(repro, "TrinityPipeline")
        assert hasattr(repro, "TrinityConfig")


PACKAGES = [
    "repro.seq",
    "repro.simdata",
    "repro.trinity",
    "repro.trinity.chrysalis",
    "repro.mpi",
    "repro.openmp",
    "repro.cluster",
    "repro.parallel",
    "repro.monitor",
    "repro.validation",
    "repro.experiments",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{package}.__all__ lists missing {name}"


class TestStageSpecs:
    @pytest.mark.parametrize("name", sorted(STAGES))
    def test_spec_well_formed(self, name):
        """Every registered stage carries a complete, exported StageSpec."""
        from dataclasses import is_dataclass

        spec = STAGES[name]
        assert spec.name == name
        assert spec.fn.stage_spec is spec
        module = importlib.import_module(spec.fn.__module__)
        for bundle in (spec.inputs_type, spec.config_type, spec.outputs_type):
            assert is_dataclass(bundle)
            assert bundle.__doc__
            assert getattr(module, bundle.__name__) is bundle

    def test_no_orphan_stages(self):
        """Every registered stage is a row of the driver's table or a named
        variant of one — a stage the driver dropped cannot linger."""
        from repro.parallel.driver import STAGE_TABLE

        rows = {row.fn.stage_spec.name for row in STAGE_TABLE}
        variants = {"rtt-striped", "rtt-master-slave", "gff-sharded-setup"}
        assert len(rows) == len(STAGE_TABLE) == 6
        assert rows | variants == set(STAGES)
        assert all(v.split("-")[0] in rows for v in variants)
        for row in STAGE_TABLE:  # the pipeline's stages are package exports
            spec = row.fn.stage_spec
            for obj in (spec.fn, spec.inputs_type, spec.config_type, spec.outputs_type):
                assert getattr(repro.parallel, obj.__name__) is obj


class TestInchwormSurface:
    def test_two_assemblers_and_no_window_knob(self):
        """The serial reference and the component kernel are the only
        assemblers; threads per rank is the one Inchworm option left."""
        from dataclasses import fields

        from repro.parallel import InchwormStageConfig
        from repro.trinity import TrinityConfig, inchworm

        assemblers = {n for n in vars(inchworm) if n.startswith("inchworm_assemble")}
        assert assemblers == {"inchworm_assemble", "inchworm_assemble_components"}
        assert {f.name for f in fields(InchwormStageConfig)} == {
            "inchworm", "n_threads", "strategy", "chunk_size", "workdir",
            "thread_slowdowns",
        }
        assert [f.name for f in fields(TrinityConfig) if "inchworm" in f.name] == [
            "inchworm_threads"
        ]


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.PipelineError("x")

    def test_distinct_categories(self):
        assert not issubclass(errors.SequenceError, errors.PipelineError)
        assert issubclass(errors.FastaFormatError, errors.SequenceError)


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_packages_documented(self, package):
        mod = importlib.import_module(package)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40

    def test_public_classes_documented(self):
        from repro.trinity import TrinityPipeline
        from repro.parallel import ParallelTrinityDriver
        from repro.mpi import SimComm

        for cls in (TrinityPipeline, ParallelTrinityDriver, SimComm):
            assert cls.__doc__
            for name, member in vars(cls).items():
                if callable(member) and not name.startswith("_"):
                    assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"
