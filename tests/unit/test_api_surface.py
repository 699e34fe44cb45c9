"""API-surface tests: public exports exist, errors form one hierarchy."""

import importlib
import inspect
from dataclasses import is_dataclass

import pytest

import repro
import repro.parallel
from repro import errors
from repro.parallel import STAGES, ParallelTrinityConfig
from repro.parallel.driver import STAGE_TABLE


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


def _is_documented_export(bundle):
    """An exported dataclass with a docstring of its own (not the
    signature ``dataclass`` writes in when there is none)."""
    return (
        is_dataclass(bundle)
        and getattr(repro.parallel, bundle.__name__, None) is bundle
        and not bundle.__doc__.startswith(f"{bundle.__name__}(")
    )


class TestStageTable:
    """``STAGE_TABLE`` is the one list of stages and ``STAGES`` is its
    rows by name (each row's conventions: ``test_parallel_stage.py``)."""

    NAMES = [row.name for row in STAGE_TABLE]

    @pytest.fixture(scope="class")
    def one_rank(self, smoke_reads):
        """The six stages' chain at one rank on the smoke recipe."""
        from repro.mpi import mpirun
        from repro.parallel.driver import run_chain
        from repro.trinity import TrinityConfig

        cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=1), nprocs=1, nthreads=2)
        return run_chain(
            cfg, smoke_reads, lambda row, inputs, config: mpirun(row.fn, 1, inputs, config)
        )

    def test_stages_is_the_table(self):
        assert STAGES == {row.name: row for row in STAGE_TABLE}
        assert list(STAGES.values()) == list(STAGE_TABLE)

    def test_stage_submodules_are_not_shadowed(self):
        """``repro.parallel.mpi_<stage>`` is the submodule, so a monkeypatch
        on it reaches the body; the bodies are ``STAGES[...].fn`` /
        ``.serial`` or the submodules' own names."""
        names = [n for n in dir(repro.parallel) if n.startswith("mpi_")]
        assert sorted(names) == sorted(row.fn.__name__ for row in STAGE_TABLE)
        for name in names:
            assert inspect.ismodule(getattr(repro.parallel, name)), name

    @pytest.mark.parametrize("name", NAMES)
    def test_outputs(self, one_rank, name):
        """A one-rank run's per-rank results: the row's inputs type went in,
        an exported, documented outputs dataclass came out, and each
        result reports the row's name."""
        row = STAGES[name]
        assert isinstance(row.inputs(one_rank), row.inputs_type)
        for rank in one_rank.runs[row.key].outputs:
            assert _is_documented_export(type(rank.outputs)), type(rank.outputs)
            assert rank.stage == row.name

    def test_stage_runs_with_default_config(self):
        """A body runs with ``config=None``: its stage's baseline."""
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


class TestInchwormSurface:
    def test_two_assemblers_and_no_window_knob(self):
        """Probe -> links and forks -> chain walk behind two assemblers, the
        serial one and the stage's per-thread queue kernel, which is the
        serial one's walk too: no second engine, no per-step search, no
        clock and no option beside threads per rank (the per-step loops
        and the fully sorted rows are the oracles in
        ``tests/reference_inchworm.py`` and ``tests/reference_pairs.py``)."""
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
        assert assemblers == {"inchworm_assemble"}
        assert params(inchworm.inchworm_assemble) == ["counts", "config"]
        assert params(inchworm.assemble_queue) == ["filtered", "config", "landing", "queue"]
        assert params(inchworm.seed_queues) == [
            "filtered", "config", "component_ids", "thread_components",
        ]
        assert params(inchworm.neighbours) == ["filtered", "start", "stop"]
        assert params(inchworm.probe) == ["filtered", "start", "stop"]
        assert params(inchworm.chain_table) == ["filtered", "salt", "landing", "queue"]
        assert params(inchworm.walk) == ["table", "used", "seed", "max_len"]
        assert params(pairs.reconcile_with_pairs) == [
            "transcripts", "reads", "assignments", "min_support",
        ]
        gone = ("_best_extension", "_SCALAR_CUTOFF", "_Walker", "def _occurs")
        for path in Path(repro.__file__).parent.rglob("*.py"):
            text = path.read_text()
            assert not [name for name in gone if name in text], path
        assert {f.name for f in fields(InchwormStageConfig)} == {
            "inchworm", "n_threads", "strategy", "workdir",
        }
        assert {f.name for f in fields(InchwormConfig)} == {
            "min_contig_length", "max_contig_length", "seed",
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

        from repro.parallel import GffStageConfig, RttStageConfig
        from repro.parallel.mpi_graph_from_fasta import mpi_graph_from_fasta
        from repro.parallel.mpi_reads_to_transcripts import mpi_reads_to_transcripts
        from repro.trinity import chrysalis
        from repro.trinity.chrysalis import reads_to_transcripts

        assert {f.name for f in fields(RttStageConfig)} == {"rtt", "nthreads", "workdir"}
        assert {f.name for f in fields(GffStageConfig)} == {"gff", "nthreads"}
        def is_body(obj):
            return inspect.isfunction(obj) and list(
                inspect.signature(obj).parameters
            ) == ["comm", "inputs", "config"]

        for fn in (mpi_graph_from_fasta, mpi_reads_to_transcripts):
            module = importlib.import_module(fn.__module__)
            assert [
                name for name, obj in vars(module).items()
                if getattr(obj, "__module__", None) == module.__name__ and is_body(obj)
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
        assert {f.name for f in fields(GffStageConfig)} == {"gff", "nthreads"}


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
        from repro.trinity.chrysalis import debruijn, orient, quantify

        def params(fn):
            return list(signature(fn).parameters)

        assert params(quantify.pack_routed_reads) == ["reads", "routed", "k", "solid"]
        assert params(quantify.quantify_component) == ["component", "graph", "pack"]
        assert params(quantify.quantify_graph) == [
            "graphs", "reads", "assignments", "kmer_counts",
        ]
        assert params(orient.reverse_votes) == ["windows", "seq_ids", "n_seqs", "nodes", "k"]
        assert [f.name for f in fields(debruijn.DeBruijnGraph)] == ["k", "codes", "weights"]
        assert params(debruijn.DeBruijnGraph.add_kmers) == ["self", "codes", "weights"]
        assert params(debruijn.fasta_to_debruijn) == ["sequences", "k"]
        assert params(debruijn.spell_path) == ["nodes", "k"]
        assert params(butterfly.butterfly_component) == ["component_id", "graph", "cfg"]
        assert params(butterfly.butterfly_assemble) == ["graphs", "cfg"]
        assert params(butterfly._walk_rows) == ["graph", "cfg", "salt"]
        assert params(butterfly._walk_runs) == ["step", "branches", "sources", "cfg"]
        assert not hasattr(butterfly, "_dfs")  # one walk; the per-node one is an oracle
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
            "max_path_nodes", "seed",
        }
        assert {f.name for f in fields(ChrysalisBackendStageConfig)} == {
            "k", "butterfly", "nthreads", "strategy", "workdir", "use_pair_reconciliation",
        }
        assert ChrysalisBackendStageConfig(k=31).weld_k == 30

    def test_package_exports_and_config_fields_pinned(self):
        """``repro.trinity.chrysalis.__all__`` after the array graph, and the
        four config dataclasses it could have leaked a knob into: only the
        back end's gained one, the pair knob it reads."""
        from dataclasses import fields

        from repro.parallel import ChrysalisBackendStageConfig, ParallelTrinityConfig
        from repro.trinity import TrinityConfig, chrysalis
        from repro.trinity.butterfly import ButterflyConfig

        assert sorted(chrysalis.__all__) == sorted([
            "Component", "build_components",
            "GraphFromFastaConfig", "WeldCandidate", "graph_from_fasta",
            "harvest_welds_for_contig", "find_weld_pairs_for_contig",
            "build_weld_index", "build_weldmer_index", "shared_seed_array",
            "weld_index_keys", "canonical_weldmer",
            "DeBruijnGraph", "fasta_to_debruijn", "spell_path",
            "orient_component", "reverse_votes",
            "ReadsToTranscriptsConfig", "ReadAssignment", "reads_to_transcripts",
            "build_kmer_map",
            "quantify_graph", "quantify_component", "pack_routed_reads", "ReadPack",
            "reads_by_component", "ComponentQuant",
        ])
        assert len(fields(ChrysalisBackendStageConfig)) == 6
        assert len(fields(ButterflyConfig)) == 5
        assert [f.name for f in fields(TrinityConfig)] == [
            "k", "min_kmer_count", "seed", "max_mem_reads", "use_bowtie_scaffolds",
            "min_weld_read_support", "butterfly_max_paths", "use_pair_reconciliation",
            "strand_specific", "inchworm_threads",
        ]
        assert [f.name for f in fields(ParallelTrinityConfig)] == [
            "trinity", "nprocs", "nthreads", "network", "faults", "butterfly_strategy",
        ]


class TestMeasurementSurface:
    def test_one_measurement_path_and_no_knob_for_it(self):
        """Stage timings come from spans and ``benchmarks.pipeline``: no
        ``repro bench``, no bench registry, and the communicator gained
        exactly the window, its team form and the span view (``compute``,
        ``map``, ``phase_seconds``) and lost the mpi4py spellings no stage calls
        (point-to-point and the root-only gather among them)."""
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
            "rank", "size", "region", "phase_seconds", "compute", "map", "check_io_fault",
            "shared", "barrier", "bcast", "allgather", "allgatherv", "alltoall",
        ])
        assert [f.name for f in fields(JellyfishStageConfig)] == [
            "jellyfish", "min_kmer_count", "workdir",
        ]
        assert [f.name for f in fields(BowtieStageConfig)] == ["bowtie", "workdir"]


class TestOneClockSurface:
    def test_one_clock_one_span_list(self):
        """One rank clock (tracing and fault injection are what it holds,
        not wrapper classes) and one record of a traced run's segments:
        ``StageResult.spans``, with no per-rank trace field beside it."""
        from dataclasses import fields
        from inspect import signature

        import repro.mpi
        from repro.mpi import VirtualClock, mpirun
        from repro.mpi.network import NetworkModel
        from repro.obs import StageResult
        from repro.parallel.recovery import mpirun_with_recovery

        assert sorted(repro.mpi.__all__) == sorted([
            "VirtualClock", "NetworkModel", "IDATAPLEX_FDR10", "SimComm", "CommStats",
            "CrashFault", "StragglerFault", "FlakyIO", "FaultPlan", "RankFaultInjector",
            "mpirun", "StageResult", "Span", "pack_strings", "unpack_strings",
            "nbytes_of",
        ])
        assert [f.name for f in fields(StageResult)] == [
            "stage", "outputs", "makespan", "spans", "comm", "metrics", "elapsed",
            "children", "rank",
        ]
        assert list(signature(VirtualClock).parameters) == ["start", "spans", "track", "faults"]
        assert list(signature(mpirun).parameters) == [
            "fn", "nprocs", "args", "network", "trace", "faults", "kwargs",
        ]
        assert list(signature(mpirun_with_recovery).parameters) == [
            "fn", "nprocs", "args", "faults", "max_rank_losses", "network", "kwargs",
        ]
        assert not hasattr(NetworkModel, "scatter")
        assert not hasattr(repro.mpi.network, "SLOW_ETHERNET")

    def test_no_point_to_point_wire(self):
        """Every rank evaluates the deal itself, so nothing is sent
        point-to-point: no message cost, counter or root-only gather."""
        from dataclasses import fields

        from repro.mpi import CommStats
        from repro.mpi.network import NetworkModel

        assert not hasattr(NetworkModel, "ptp")
        assert not hasattr(NetworkModel, "gather")
        assert "n_messages" not in {f.name for f in fields(CommStats)}


class TestRunRecordSurface:
    def test_one_launch_knob_and_one_global_counter(self):
        """The launch path's one settable value is ``max_rank_losses``;
        retry is a fixed budget; the process-wide registry holds one
        counter and can neither gauge, merge, render nor reset."""
        from inspect import signature

        from repro.obs.metrics import MetricsRegistry
        from repro.parallel import recovery
        from repro.parallel.driver import ParallelTrinityDriver

        assert list(signature(recovery.with_retry).parameters) == ["comm", "label", "fn"]
        assert (recovery.MAX_ATTEMPTS, recovery.BASE_BACKOFF_S, recovery.BACKOFF_FACTOR) == (
            4, 0.05, 2.0,
        )
        for name in ("RetryPolicy", "RecoveryPolicy", "DEFAULT_RETRY", "DEFAULT_RECOVERY"):
            assert not hasattr(recovery, name), name
            assert not hasattr(repro.parallel, name), name
        assert not hasattr(ParallelTrinityDriver, "_launch")
        assert sorted(n for n in vars(MetricsRegistry) if not n.startswith("_")) == [
            "get", "inc",
        ]


class TestDeletedSurface:
    """What nothing ran is gone, and stays gone: the graph simplification
    pass, the OpenMP schedules no team used and the thread-team objects
    ``SimComm`` replaced, FASTQ and PyFasta I/O, and
    the helpers only their own tests called (what a test still needs
    lives under ``tests/``)."""

    GONE = {
        "repro.openmp": (
            "Schedule", "simulate_schedule", "static_makespan", "guided_makespan",
            "static_chunks", "per_thread_busy_times", "ThreadTeam", "TeamResult",
        ),
        "repro.mpi": ("render_gantt", "trace_summary"),
        "repro.obs": ("trace_summary",),
        "repro.obs.critical": ("trace_summary",),
        "repro.parallel": ("ParallelStage", "StageSpec", "parallel_stage", "rank_items"),
        "repro.parallel.chunks": ("rank_items", "default_chunk_size"),
        "repro.parallel.component_stage": ("round_robin_assign",),
        "repro.openmp.schedule": (
            "Schedule", "simulate_schedule", "static_makespan", "guided_makespan",
            "static_chunks", "per_thread_busy_times",
        ),
        "repro.seq": (
            "is_valid_dna", "complement", "read_fastq", "write_fastq", "iter_fastq",
            "FastaIndex", "split_fasta", "merge_sam_files", "write_sam", "read_sam",
        ),
        "repro.seq.alphabet": ("decode_bases", "is_valid_dna", "complement"),
        "repro.seq.kmers": ("count_kmers_into", "shared_kmer_count"),
        "repro.seq.kmer_index": ("counter_from_reads",),
        "repro.seq.sam": ("merge_sam_files", "format_sam", "write_sam", "read_sam"),
        "repro.simdata": ("simulate_reads",),
        "repro.simdata.expression": ("uniform_expression",),
        "repro.simdata.reads": ("simulate_reads",),
        "repro.simdata.transcriptome": ("fuse_transcripts",),
        "repro.trinity": ("bowtie_align", "jellyfish_load", "align_reads", "JellyfishCounts"),
        "repro.trinity.bowtie": ("align_read", "bowtie_align", "align_reads", "sam_records"),
        # One connected-components kernel (``kmer_components``), no wrapper
        # beside the solid table and no containment scan nothing can hit.
        "repro.trinity.chrysalis": ("simplify", "UnionFind"),
        "repro.trinity.chrysalis.components": ("UnionFind",),
        "repro.mpi.datatypes": ("pack_int_pairs", "unpack_int_pairs"),
        "repro.trinity.butterfly": ("_dedup_contained",),
        "repro.trinity.chrysalis.reads_to_transcripts": (
            "read_assignments", "format_assignments", "write_assignments", "assign_reads_batched",
        ),
        "repro.trinity.dsk": ("dsk_count",),
        "repro.trinity.inchworm": (
            "mean_coverage", "tie_break_code", "inchworm_assemble_components",
            "ComponentAssembly", "_thread_queues",
        ),
        "repro.parallel.mpi_inchworm": ("_component_setup",),
        # Range owners and one solid table: no hash partition, no second filter.
        "repro.parallel.mpi_jellyfish": ("_partition_of", "_pack_pairs"),
        "repro.trinity.chrysalis.quantify": ("solid_index",),
        "repro.parallel.driver": ("_counts_bytes", "_CHECKPOINT_LAYOUT"),
        "repro.experiments.report": ("SLOW_IDS",),
        "repro.trinity.jellyfish": ("jellyfish_load", "kmer_histogram", "JellyfishCounts"),
        "repro.trinity.pairs": ("pair_support",),
        "repro.util": ("format_series",),
        "repro.util.fmt": ("format_series", "render_mapping"),
    }

    @pytest.mark.parametrize(
        "module",
        [
            "repro.openmp.team", "repro.seq.fastq", "repro.seq.pyfasta",
            "repro.trinity.chrysalis.simplify", "repro.parallel.stage",
        ],
    )
    def test_module_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_names_gone(self):
        from dataclasses import fields
        from inspect import signature

        from repro.cluster.costmodel import PaperCalibration
        from repro.parallel.component_stage import assign, deal
        from repro.parallel.driver import StageRow
        from repro.parallel.scaling import rank_loads
        from repro.seq.kmer_index import KmerCounter
        from repro.seq.sam import SamRecord
        from repro.trinity.bowtie import BowtieIndex
        from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment
        from repro.trinity.chrysalis.debruijn import DeBruijnGraph

        for module, names in self.GONE.items():
            mod = importlib.import_module(module)
            assert [n for n in names if hasattr(mod, n)] == [], module
            assert not set(names) & set(getattr(mod, "__all__", ())), module
        assert not hasattr(KmerCounter, "histogram")
        # The live runs' RAM estimates and what only they read.
        assert "ram_bytes" not in {f.name for f in fields(StageRow)}
        assert not hasattr(DeBruijnGraph, "nbytes")
        assert not hasattr(BowtieIndex, "memory_bytes")
        # Text is rendered from columns; the per-record writers are oracles.
        assert not hasattr(SamRecord, "to_line")
        assert not hasattr(ReadAssignment, "to_line")
        assert not hasattr(ReadAssignment, "from_line")  # tests/reference_rtt.py
        assert not hasattr(SamRecord, "from_line")  # tests/reference_sam.py
        # One chunk rule, ``chunks.chunk_size``; the component deal is i mod p.
        assert "chunks_total" not in {f.name for f in fields(PaperCalibration)}
        assert not hasattr(PaperCalibration, "chunk_size")
        assert list(signature(assign).parameters) == ["strategy", "ids", "nprocs", "costs"]
        assert "nthreads" not in signature(deal).parameters
        assert "chunk_size" not in signature(rank_loads).parameters

    def test_no_strand_flag_beside_a_table(self):
        """The solid table carries its strand mode: no function takes a
        ``canonical`` flag next to a ``KmerCounter``."""
        import ast
        from pathlib import Path

        import repro

        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
                    tables = [a for a in args if a.annotation and "KmerCounter" in ast.unparse(a.annotation)]
                    assert not (tables and "canonical" in {a.arg for a in args}), (path, node.name)

    def test_one_schedule_no_knobs(self):
        from dataclasses import fields
        from inspect import signature

        from repro.mpi import SimComm
        from repro.openmp import dynamic_makespan
        from repro.trinity.butterfly import ButterflyConfig

        # A team is a compute window: its size is the one knob.
        assert list(signature(SimComm.compute).parameters) == [
            "self", "label", "threads", "attrs",
        ]
        assert list(signature(SimComm.map).parameters) == [
            "self", "label", "fn", "items", "threads", "attrs",
        ]
        assert list(signature(dynamic_makespan).parameters) == ["costs", "n_threads"]
        assert "simplify" not in {f.name for f in fields(ButterflyConfig)}


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
