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
        """Every registered stage is a row of the driver's table — a body
        the driver does not launch cannot linger in the registry."""
        from repro.parallel.driver import STAGE_TABLE

        rows = {row.fn.stage_spec.name for row in STAGE_TABLE}
        assert len(rows) == len(STAGE_TABLE) == 6
        assert rows == set(STAGES)
        for row in STAGE_TABLE:  # the pipeline's stages are package exports
            spec = row.fn.stage_spec
            for obj in (spec.fn, spec.inputs_type, spec.config_type, spec.outputs_type):
                assert getattr(repro.parallel, obj.__name__) is obj


class TestInchwormSurface:
    def test_two_assemblers_and_no_window_knob(self):
        """Probe -> rows -> walk behind two assemblers: no second engine,
        no per-step search and no option beside threads per rank (the
        per-step loops are the oracles in ``tests/reference_inchworm.py``
        and ``tests/reference_pairs.py``)."""
        from dataclasses import fields
        from inspect import signature
        from pathlib import Path

        import repro
        from repro.parallel import InchwormStageConfig
        from repro.trinity import TrinityConfig, inchworm, pairs
        from repro.trinity.inchworm import InchwormConfig

        def params(fn):
            return list(signature(fn).parameters)

        assemblers = {n for n in vars(inchworm) if n.startswith("inchworm_assemble")}
        assert assemblers == {"inchworm_assemble", "inchworm_assemble_components"}
        assert params(inchworm.inchworm_assemble) == ["counts", "config"]
        assert params(inchworm.inchworm_assemble_components) == [
            "filtered", "canonical", "config", "landing", "seed_rank",
            "thread_components", "thread_slowdowns",
        ]
        assert params(inchworm.neighbours) == ["filtered", "canonical", "start", "stop"]
        assert params(inchworm.preference_rows) == [
            "filtered", "canonical", "salt", "landing", "queue",
        ]
        assert params(inchworm.walk) == ["rows", "used", "o_bits", "seed", "max_len"]
        assert params(pairs.reconcile_with_pairs) == [
            "transcripts", "reads", "assignments", "min_support",
        ]
        assert params(pairs.pair_support) == ["transcript_seq", "pairs"]
        gone = ("_best_extension", "_SCALAR_CUTOFF", "_Walker", "def _occurs")
        for path in Path(repro.__file__).parent.rglob("*.py"):
            text = path.read_text()
            assert not [name for name in gone if name in text], path
        assert {f.name for f in fields(InchwormStageConfig)} == {
            "inchworm", "n_threads", "strategy", "chunk_size", "workdir",
            "thread_slowdowns",
        }
        assert {f.name for f in fields(InchwormConfig)} == {
            "min_kmer_count", "min_contig_length", "max_contig_length", "seed",
        }
        assert [f.name for f in fields(TrinityConfig) if "inchworm" in f.name] == [
            "inchworm_threads"
        ]


class TestChrysalisFrontSurface:
    def test_one_body_per_stage_and_no_selector(self):
        """GraphFromFasta and ReadsToTranscripts each have one stage body;
        no kernel/pool selector and no per-read entry point beside it (the
        scalar loop is the oracle in ``tests/reference_rtt.py``)."""
        from dataclasses import fields

        from repro.parallel import (
            GffStageConfig,
            RttStageConfig,
            mpi_graph_from_fasta,
            mpi_reads_to_transcripts,
        )
        from repro.trinity import chrysalis
        from repro.trinity.chrysalis import reads_to_transcripts

        assert {f.name for f in fields(RttStageConfig)} == {"rtt", "nthreads", "workdir"}
        assert {f.name for f in fields(GffStageConfig)} == {"gff", "nthreads", "chunk_size"}
        for fn in (mpi_graph_from_fasta, mpi_reads_to_transcripts):
            module = importlib.import_module(fn.__module__)
            assert [
                name for name, obj in vars(module).items()
                if getattr(obj, "__module__", None) == module.__name__
                and hasattr(obj, "stage_spec")
            ] == [fn.__name__]
        assert not hasattr(reads_to_transcripts, "assign_read")
        assert "assign_read" not in chrysalis.__all__

    def test_gff_setup_is_two_array_kernels(self):
        """One seed table and one read scan, both on arrays, called by the
        stage, the serial pipeline and the calibration alike: no dict of
        sets, no set-or-array argument and no new field (the scalar scan
        and the dict of sets are the oracle in ``tests/reference_gff.py``)."""
        from dataclasses import fields
        from inspect import signature
        from pathlib import Path

        import repro
        from repro.parallel import GffStageConfig
        from repro.trinity import chrysalis

        gff = importlib.import_module("repro.trinity.chrysalis.graph_from_fasta")

        def params(fn):
            return list(signature(fn).parameters)

        assert params(gff.shared_seed_array) == ["contigs", "cfg"]
        assert params(gff.scan_weldmers) == ["reads", "shared_seeds", "cfg"]
        assert params(gff.sum_weldmer_tables) == ["tables"]
        assert params(gff.weldmer_index) == ["table", "k"]
        assert params(gff.build_weldmer_index) == ["reads", "shared_seeds", "cfg"]
        assert params(gff.harvest_welds_for_contig) == [
            "contig_idx", "contig", "cfg", "shared_seeds",
        ]
        for name in ("shared_seed_array", "build_weldmer_index"):
            assert name in chrysalis.__all__
        gone = ("build_kmer_to_contigs", "shared_seed_codes")
        for name in gone:
            assert name not in chrysalis.__all__
        for path in Path(repro.__file__).parent.rglob("*.py"):
            text = path.read_text()
            assert not [name for name in gone if name in text], path
        assert {f.name for f in fields(gff.GraphFromFastaConfig)} == {
            "k", "min_weld_read_support", "min_contigs_sharing",
        }
        assert {f.name for f in fields(GffStageConfig)} == {"gff", "nthreads", "chunk_size"}


class TestChrysalisBackendSurface:
    def test_kernel_signatures_and_no_scalar_path(self):
        """One pack, one threading kernel, one walk, the signatures the fused
        stage and the serial pipeline call — and no field, mode parameter,
        string-keyed graph or per-read entry point beside them (the dict
        graph and the scalar code are the oracle in
        ``tests/reference_chrysalis.py``)."""
        from dataclasses import fields
        from inspect import signature

        from repro.parallel import ChrysalisBackendStageConfig
        from repro.parallel.mpi_chrysalis_backend import estimated_component_cost
        from repro.trinity import butterfly, chrysalis
        from repro.trinity.chrysalis import debruijn, orient, quantify, simplify

        def params(fn):
            return list(signature(fn).parameters)

        assert params(quantify.pack_routed_reads) == ["reads", "routed", "k", "solid"]
        assert params(quantify.quantify_component) == ["component", "graph", "pack"]
        assert params(quantify.quantify_graph) == [
            "graphs", "reads", "assignments", "kmer_counts", "min_kmer_count",
        ]
        assert params(orient.reverse_votes) == ["windows", "seq_ids", "n_seqs", "nodes", "k"]
        assert [f.name for f in fields(debruijn.DeBruijnGraph)] == ["k", "codes", "weights"]
        assert params(debruijn.DeBruijnGraph.add_kmers) == ["self", "codes", "weights"]
        assert params(debruijn.fasta_to_debruijn) == ["sequences", "k"]
        assert params(debruijn.spell_path) == ["nodes", "k"]
        assert params(butterfly.butterfly_component) == ["component_id", "graph", "cfg"]
        assert params(butterfly.butterfly_assemble) == ["graphs", "cfg"]
        assert params(butterfly._walk_rows) == ["graph", "cfg", "salt"]
        assert params(butterfly._dfs) == [
            "step", "branches", "src", "cfg", "paths", "seen_paths",
        ]
        assert params(simplify.simplify_graph) == ["graph", "cfg"]
        assert params(estimated_component_cost) == [
            "component", "contigs", "k", "max_paths", "n_reads",
        ]
        gone = (
            "best_orientation", "add_sequence_masked", "add_sequence_filtered",
            "add_sequence", "node_codes", "successors", "predecessors", "reweight",
        )
        for name in gone:
            assert not hasattr(orient, name)
            assert not hasattr(debruijn.DeBruijnGraph, name)
            assert name not in chrysalis.__all__
        assert not hasattr(quantify, "_BLOCK_READS")
        assert {f.name for f in fields(butterfly.ButterflyConfig)} == {
            "max_paths_per_component", "min_transcript_length", "min_edge_fraction",
            "max_path_nodes", "seed", "simplify",
        }
        assert {f.name for f in fields(ChrysalisBackendStageConfig)} == {
            "k", "weld_k", "min_kmer_count", "butterfly", "nthreads", "strategy",
            "chunk_size", "workdir",
        }

    def test_package_exports_and_config_fields_pinned(self):
        """``repro.trinity.chrysalis.__all__`` after the array graph, and the
        four config dataclasses it could have leaked a knob into: none
        gained a field."""
        from dataclasses import fields

        from repro.parallel import ChrysalisBackendStageConfig, ParallelTrinityConfig
        from repro.trinity import TrinityConfig, chrysalis
        from repro.trinity.butterfly import ButterflyConfig

        assert sorted(chrysalis.__all__) == sorted([
            "UnionFind", "Component", "build_components",
            "GraphFromFastaConfig", "WeldCandidate", "graph_from_fasta",
            "harvest_welds_for_contig", "find_weld_pairs_for_contig",
            "build_weld_index", "build_weldmer_index", "shared_seed_array",
            "weld_index_keys", "canonical_weldmer",
            "DeBruijnGraph", "fasta_to_debruijn", "spell_path",
            "orient_component", "reverse_votes",
            "ReadsToTranscriptsConfig", "ReadAssignment", "reads_to_transcripts",
            "build_kmer_map",
            "quantify_graph", "quantify_component", "pack_routed_reads", "ReadPack",
            "reads_by_component", "solid_index", "ComponentQuant",
        ])
        assert len(fields(ChrysalisBackendStageConfig)) == 8
        assert len(fields(ButterflyConfig)) == 6
        assert [f.name for f in fields(TrinityConfig)] == [
            "k", "min_kmer_count", "seed", "max_mem_reads", "use_bowtie_scaffolds",
            "min_weld_read_support", "butterfly_max_paths", "use_pair_reconciliation",
            "strand_specific", "inchworm_threads",
        ]
        assert [f.name for f in fields(ParallelTrinityConfig)] == [
            "trinity", "nprocs", "nthreads", "network", "faults", "recovery",
            "butterfly_strategy",
        ]


class TestMeasurementSurface:
    def test_one_measurement_path_and_no_knob_for_it(self):
        """Stage timings come from spans and ``benchmarks.pipeline``: no
        ``repro bench``, no bench registry, and the communicator gained
        exactly the window and the span view (``compute``,
        ``phase_seconds``) and lost the two unused mpi4py spellings."""
        from dataclasses import fields

        from repro.cli import build_parser
        from repro.experiments import registry
        from repro.mpi import SimComm
        from repro.parallel import BowtieStageConfig, JellyfishStageConfig

        (commands,) = [
            a.choices for a in build_parser()._actions if getattr(a, "choices", None)
        ]
        assert sorted(commands) == [
            "assemble", "experiments", "faults", "profile", "recovery", "report",
            "simulate", "stats", "validate",
        ]
        assert not [name for name in vars(registry) if "bench" in name.lower()]
        assert sorted(n for n in vars(SimComm) if not n.startswith("_")) == sorted([
            "rank", "size", "region", "phase_seconds", "compute", "check_io_fault",
            "shared", "barrier", "bcast", "gather", "allgather", "allgatherv",
            "scatter", "alltoall", "reduce_max", "allreduce_sum", "Bcast",
            "Allgatherv", "split", "send", "recv",
        ])
        assert [f.name for f in fields(JellyfishStageConfig)] == ["jellyfish", "workdir"]
        assert [f.name for f in fields(BowtieStageConfig)] == ["bowtie", "workdir"]


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
