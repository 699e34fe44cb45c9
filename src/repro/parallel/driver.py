"""Parallel Trinity driver: the ``Trinity.pl --nprocs N`` equivalent.

The paper's software methodology (SS:III.C): ``Trinity.pl`` gains an
``nprocs`` argument; Chrysalis prepends ``mpirun -np nprocs`` to the
GraphFromFasta and ReadsToTranscripts command lines (and Bowtie runs over
PyFasta-split pieces).  Mirroring that, this driver launches one
simulated ``mpirun`` per Chrysalis substep, and — going past the paper
into its named future work on "the non-parallelized regions" —
distributes the Jellyfish front end (:mod:`repro.parallel.mpi_jellyfish`),
Inchworm via k-mer-graph component partitioning
(:mod:`repro.parallel.mpi_inchworm`, hybrid MPI x simulated OpenMP
threads per rank), and the whole Chrysalis *back end* — orient +
FastaToDebruijn + QuantifyGraph + Butterfly fused into one
component-parallel stage (:mod:`repro.parallel.mpi_chrysalis_backend`)
— all byte-identical to their serial stages at any rank count.  The
front-end node computes nothing between launches: the two pair steps
the serial pipeline runs between its stages run inside stages, on the
modelled clocks.  Bowtie counts scaffold support from its alignment
columns (a keyed sum of per-read-block counts hands GraphFromFasta its
scaffold pairs), and the back end scores each component's candidate
transcripts against the mate pairs routed to it, after the walk, and
writes the survivors as ``Trinity.fasta``.  What remains host-side is the
table walk itself, the checkpoints and the union of the ranks'
quantified graphs into the result (the pipeline benchmark's
``pipeline.glue_s``).  With ``use_bowtie_scaffolds`` off no Bowtie is
launched, as in the serial pipeline.

Every MPI stage body is ``stage(comm, inputs, config=None) -> StageResult``
with typed ``*Inputs`` / ``*StageConfig`` / ``*Outputs`` dataclasses, so
the six-stage chain is said once.  :data:`STAGE_TABLE` is the one list of
stages: each row names a stage's MPI body and serial body, inputs type
and builder, config accessor and upstream stages, and :data:`STAGES` is
the same rows keyed by name.  :func:`run_chain` walks the table with
whatever *launcher* the caller passes: :meth:`ParallelTrinityDriver.run`'s
checkpoint and recovery ``launch``, a traced ``mpirun`` for ``repro
profile`` and ``fig-inchworm``, or :func:`serial_launcher`, which runs the
serial bodies for :class:`~repro.trinity.pipeline.TrinityPipeline`.  Both
drivers build their result with :func:`chain_result`.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Type, Union

from repro.errors import PipelineError
from repro.obs.metrics import GLOBAL_METRICS
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage, stage_seconds
from repro.mpi.faults import FaultPlan
from repro.mpi.network import IDATAPLEX_FDR10, NetworkModel
from repro.parallel.recovery import mpirun_with_recovery
from repro.seq.records import SeqRecord, sanitize_reads
from repro.trinity.config import TrinityConfig, TrinityResult
from repro.parallel.component_stage import check_strategy
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieStageConfig, mpi_bowtie, serial_bowtie
from repro.parallel.mpi_inchworm import (
    InchwormInputs, InchwormStageConfig, mpi_inchworm, serial_inchworm,
)
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendInputs, ChrysalisBackendStageConfig, mpi_chrysalis_backend,
    serial_chrysalis_backend,
)
from repro.parallel.mpi_jellyfish import (
    JellyfishInputs, JellyfishStageConfig, mpi_jellyfish, serial_jellyfish,
)
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs, GffStageConfig, mpi_graph_from_fasta, serial_graph_from_fasta,
)
from repro.parallel.mpi_reads_to_transcripts import (
    RttInputs, RttStageConfig, mpi_reads_to_transcripts, serial_reads_to_transcripts,
)

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ParallelTrinityConfig:
    """Hybrid-run parameters on top of the serial :class:`TrinityConfig`.

    Only *distribution* knobs live here (rank/thread counts, network,
    faults, dealing strategy); every stage-algorithm parameter is derived
    from ``trinity`` through the ``*_stage()`` accessors, so the serial
    and hybrid runs cannot silently diverge on shared settings.
    """

    trinity: TrinityConfig = TrinityConfig()
    nprocs: int = 4
    nthreads: int = 16  # OpenMP threads per rank (paper: 16 per node)
    network: NetworkModel = IDATAPLEX_FDR10
    #: Deterministic fault schedule injected into every MPI stage launch
    #: (all go through :func:`mpirun_with_recovery`, which without a crash
    #: in ``faults`` is one plain ``mpirun``).
    faults: Optional[FaultPlan] = None
    #: Component-dealing strategy for the component-parallel stages
    #: (Inchworm and the fused Chrysalis back end): ``"round_robin"``
    #: (cost-blind, item ``i`` to rank ``i mod p``) or ``"dynamic"`` (LPT
    #: over the per-component cost model).
    butterfly_strategy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise PipelineError(f"nprocs must be positive, got {self.nprocs}")
        if self.nthreads <= 0:
            raise PipelineError(f"nthreads must be positive, got {self.nthreads}")
        check_strategy(self.butterfly_strategy, "Butterfly")

    @property
    def inchworm_threads(self) -> int:
        """Simulated OpenMP thread count for the Inchworm front end.

        Delegates to ``trinity.inchworm_threads``, the one setting the
        serial pipeline shares, so the two cannot diverge.  A straggler
        fault in ``faults`` slows its rank's clock, threads and all.
        """
        return self.trinity.inchworm_threads

    # -- stage-config accessors, for both bodies of each row (on top of
    # TrinityConfig's .inchworm()/.gff()/.rtt()/.butterfly() accessors) ----

    def jellyfish_stage(
        self, workdir: Optional[PathLike] = None
    ) -> JellyfishStageConfig:
        return JellyfishStageConfig(
            jellyfish=self.trinity.jellyfish(),
            min_kmer_count=self.trinity.min_kmer_count,
            workdir=workdir,
        )

    def inchworm_stage(
        self, workdir: Optional[PathLike] = None
    ) -> InchwormStageConfig:
        return InchwormStageConfig(
            inchworm=self.trinity.inchworm(),
            n_threads=self.inchworm_threads,
            strategy=self.butterfly_strategy,
            workdir=workdir,
        )

    def bowtie_stage(self, workdir: Optional[PathLike] = None) -> BowtieStageConfig:
        return BowtieStageConfig(bowtie=self.trinity.bowtie(), workdir=workdir)

    def gff_stage(self) -> GffStageConfig:
        return GffStageConfig(gff=self.trinity.gff(), nthreads=self.nthreads)

    def rtt_stage(self, workdir: Optional[PathLike] = None) -> RttStageConfig:
        return RttStageConfig(
            rtt=self.trinity.rtt(), nthreads=self.nthreads, workdir=workdir
        )

    def chrysalis_stage(
        self, workdir: Optional[PathLike] = None
    ) -> ChrysalisBackendStageConfig:
        return ChrysalisBackendStageConfig(
            k=self.trinity.k,
            butterfly=self.trinity.butterfly(),
            nthreads=self.nthreads,
            strategy=self.butterfly_strategy,
            workdir=workdir,
            use_pair_reconciliation=self.trinity.use_pair_reconciliation,
        )


@dataclass
class StageChain:
    """State of one walk of :data:`STAGE_TABLE`: config, reads, and the
    launcher's result of every stage launched so far (keyed by row key,
    in launch order)."""

    cfg: ParallelTrinityConfig
    reads: Sequence[SeqRecord]
    runs: Dict[str, StageResult] = field(default_factory=dict)

    def out(self, key: str) -> Any:
        """Rank 0's typed ``*Outputs`` of stage ``key``."""
        return self.runs[key].outputs[0].outputs

    @property
    def contigs(self) -> Sequence[Any]:
        contigs = self.out("inchworm").contigs
        if not contigs:
            tcfg = self.cfg.trinity
            raise PipelineError(
                "inchworm produced no contigs; reads may be too sparse for "
                f"k={tcfg.k} with min_kmer_count={tcfg.min_kmer_count}"
            )
        return contigs


@dataclass(frozen=True)
class StageRow:
    """One row of :data:`STAGE_TABLE` — everything the chain, the
    checkpoint key, the metrics, the CLI and the benchmark derive about a
    stage."""

    key: str  # short name: ``cfg.<key>_stage``, ``mpi.<key>_makespan_s``, ``--stage``
    name: str  # its :data:`STAGES` key, and its per-rank results' ``stage``
    fn: Callable[..., StageResult]  # the body: ``fn(comm, inputs, config=None)``
    inputs_type: Type[Any]  # the body's ``*Inputs`` dataclass
    label: str  # its driver-track stage span's label
    args: Callable[[StageChain], Dict[str, Any]]  # ``inputs_type`` fields from the chain
    config: Callable[[ParallelTrinityConfig, Optional[Path]], Any]
    upstream: Tuple[str, ...]  # row keys whose outputs ``args`` reads (if launched)
    #: The serial body, ``serial(inputs, config=None, spans=None) -> *Outputs``:
    #: the stage from the serial kernels, timing them into ``spans``.
    serial: Callable[..., Any]
    file_key: Optional[str] = None  # TrinityResult.files key of outputs[0].out_path
    #: Whether a run of this config launches the stage at all.
    launched: Callable[[ParallelTrinityConfig], bool] = lambda cfg: True

    def inputs(self, chain: StageChain) -> Any:
        """The stage's ``*Inputs`` from the chain so far."""
        return self.inputs_type(**self.args(chain))


#: The six-stage chain, in launch order: the one list of stages.  Adding
#: or removing a stage is one row; nothing else in the driver, the CLI
#: or the experiments names a stage.
STAGE_TABLE: Tuple[StageRow, ...] = (
    StageRow(
        "jellyfish", "jellyfish", mpi_jellyfish, JellyfishInputs, "jellyfish[mpi]",
        lambda chain: dict(reads=chain.reads),
        lambda cfg, wd: cfg.jellyfish_stage(workdir=wd),
        upstream=(), serial=serial_jellyfish, file_key="jellyfish_dump",
    ),
    # Components of the k-mer overlap graph dealt to ranks, each rank
    # building successor rows for its own components and walking them
    # (hybrid MPI x threads).
    StageRow(
        "inchworm", "inchworm", mpi_inchworm, InchwormInputs, "inchworm[mpi]",
        lambda chain: dict(counts=chain.out("jellyfish").counts),
        lambda cfg, wd: cfg.inchworm_stage(workdir=wd),
        upstream=("jellyfish",), serial=serial_inchworm, file_key="inchworm_contigs",
    ),
    StageRow(
        "bowtie", "bowtie", mpi_bowtie, BowtieInputs, "chrysalis.bowtie[mpi]",
        lambda chain: dict(reads=chain.reads, contigs=chain.contigs),
        lambda cfg, wd: cfg.bowtie_stage(workdir=wd),
        upstream=("inchworm",), serial=serial_bowtie, file_key="bowtie_sam",
        launched=lambda cfg: cfg.trinity.use_bowtie_scaffolds,
    ),
    StageRow(
        "gff", "gff", mpi_graph_from_fasta, GffInputs, "chrysalis.graph_from_fasta[mpi]",
        lambda chain: dict(
            contigs=chain.contigs, reads=chain.reads,
            extra_pairs=chain.out("bowtie").scaffolds if "bowtie" in chain.runs else (),
        ),
        lambda cfg, wd: cfg.gff_stage(),
        upstream=("inchworm", "bowtie"), serial=serial_graph_from_fasta,
    ),
    # Straight after GFF: the fused back end consumes RTT's routing, so
    # no graphs are ever built on the front-end node.
    StageRow(
        "rtt", "rtt", mpi_reads_to_transcripts, RttInputs,
        "chrysalis.reads_to_transcripts[mpi]",
        lambda chain: dict(
            reads=chain.reads, contigs=chain.contigs,
            components=chain.out("gff").components,
        ),
        lambda cfg, wd: cfg.rtt_stage(workdir=wd),
        upstream=("inchworm", "gff"), serial=serial_reads_to_transcripts,
        file_key="reads_to_transcripts",
    ),
    # orient + FastaToDebruijn + QuantifyGraph + Butterfly per component
    # on its owner rank; the graphs never cross the wire.
    StageRow(
        "chrysalis", "chrysalis-backend", mpi_chrysalis_backend, ChrysalisBackendInputs,
        "chrysalis.backend[mpi]",
        lambda chain: dict(
            contigs=chain.contigs, reads=chain.reads,
            components=chain.out("gff").components,
            assignments=chain.out("rtt").assignments,
            counts=chain.out("jellyfish").counts,
        ),
        lambda cfg, wd: cfg.chrysalis_stage(workdir=wd),
        upstream=("jellyfish", "inchworm", "gff", "rtt"), serial=serial_chrysalis_backend,
        file_key="transcripts",
    ),
)

#: The rows by name (``StageRow.name``): the stage registry.
STAGES: Dict[str, StageRow] = {row.name: row for row in STAGE_TABLE}

#: ``launch(row, inputs, stage_config) -> StageResult`` — how one row runs.
Launcher = Callable[[StageRow, Any, Any], StageResult]


def serial_launcher(spans: Optional[List[Span]] = None) -> Launcher:
    """A launcher running each row's serial body, its kernels timed into
    ``spans``, as a one-rank result: the serial pipeline's."""

    def launch(row: StageRow, inputs: Any, stage_config: Any) -> StageResult:
        outputs = row.serial(inputs, stage_config, spans)
        return StageResult(
            stage=row.name, outputs=[StageResult(stage=row.name, outputs=outputs, rank=0)]
        )

    return launch


def _with_upstream(target: str) -> Set[str]:
    """``target`` plus every stage it transitively reads from; an unknown
    row key raises :class:`PipelineError`."""
    keys = [row.key for row in STAGE_TABLE]
    if target not in keys:
        raise PipelineError(f"unknown stage {target!r}; known: {keys}")
    needed = {target}
    for row in reversed(STAGE_TABLE):  # launch order is a topological order
        if row.key in needed:
            needed.update(row.upstream)
    return needed


def run_chain(
    cfg: ParallelTrinityConfig,
    reads: Sequence[SeqRecord],
    launch: Launcher,
    *,
    workdir: Optional[Path] = None,
    target: Optional[str] = None,
) -> StageChain:
    """Walk :data:`STAGE_TABLE` in order, launching each row via ``launch``
    (which times what it runs: the driver's launch as one host span per
    row, the serial bodies their kernels).

    With ``target`` (a row key), only that stage and its transitive
    upstream stages run; a row whose ``launched(cfg)`` is false never
    does.  ``workdir`` is made first; no reads is a :class:`PipelineError`.
    Reads are sanitised first (:func:`~repro.seq.records.sanitize_reads`).
    """
    if not reads:
        raise PipelineError("no reads supplied")
    reads = sanitize_reads(reads)
    if workdir is not None:
        Path(workdir).mkdir(parents=True, exist_ok=True)
    chain = StageChain(cfg, reads)
    needed = _with_upstream(target) if target is not None else None
    for row in STAGE_TABLE:
        if (needed is not None and row.key not in needed) or not row.launched(cfg):
            continue
        inputs = row.inputs(chain)
        chain.runs[row.key] = launch(row, inputs, row.config(cfg, workdir))
    return chain


def chain_result(chain: StageChain) -> TrinityResult:
    """A full walk's :class:`TrinityResult`: each row's rank-0 outputs,
    the files the rows wrote (by ``file_key``), and the quantified graphs
    unioned over the back end's ranks.

    Graphs stay rank-local in the back end; the serial-shaped quants dict
    (ascending component id) is their union, taken host-side.
    """
    files: Dict[str, Path] = {
        row.file_key: chain.out(row.key).out_path
        for row in STAGE_TABLE
        if row.file_key and row.key in chain.runs and chain.out(row.key).out_path is not None
    }
    quants = {
        cid: q
        for rank in chain.runs["chrysalis"].outputs
        for cid, q in rank.outputs.local_quants.items()
    }
    return TrinityResult(
        transcripts=chain.out("chrysalis").transcripts,
        contigs=chain.contigs,
        gff=chain.out("gff"),
        assignments=chain.out("rtt").assignments,
        quants=dict(sorted(quants.items())),
        counts=chain.out("jellyfish").counts,
        files=files,
    )


def reads_digest(reads: Sequence[SeqRecord]) -> str:
    """SHA-256 over the reads' names and sequences, in order."""
    h = hashlib.sha256()
    for read in reads:
        h.update(f"{read.name}\n{read.seq}\n".encode())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` sources (relative path
    and bytes, in path order), computed once per process.

    Part of every checkpoint key: a checkpoint serves a restart of the
    code that wrote it, so a payload written by other code — another
    kernel, another pickled layout — is a logged miss that recomputes,
    never a stale result handed back as "restored".
    """
    root = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(f"{path.relative_to(root).as_posix()}\0".encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _checkpoint_key(
    row: StageRow,
    stage_config: Any,
    cfg: ParallelTrinityConfig,
    workdir: Optional[Path],
    digest: str,
    upstream_keys: Sequence[str],
) -> str:
    """Content key of one stage result: everything it depends on.

    The stage and its full config, the launch shape, network and fault
    plan, the workdir its files land in, the reads' content digest, the
    source digest of the code, and — transitively — the keys of its
    launched upstream stages.  Any mismatch recomputes.
    """
    parts = (
        _source_digest(), row.fn.__name__, stage_config, cfg.nprocs, cfg.nthreads,
        cfg.network, cfg.faults, str(workdir), digest, list(upstream_keys),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _checkpoint_path(checkpoint_dir: PathLike, stage: str) -> Path:
    return Path(checkpoint_dir) / f"{stage}.ckpt.pkl"


def _load_checkpoint(
    checkpoint_dir: PathLike, stage: str, key: str
) -> Optional[StageResult]:
    """A previously checkpointed StageResult, or None if absent/stale.

    Corrupt or truncated pickles, payloads without a result, key
    mismatches (other reads, code, config, nprocs, network, fault plan or
    upstream stage) and results naming a file (any rank's ``out_path`` or
    ``part_path``) that no longer exists are treated as misses — the stage
    recomputes.
    """
    path = _checkpoint_path(checkpoint_dir, stage)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as f:
            payload = pickle.load(f)
    except Exception as exc:  # noqa: BLE001 - any corruption => recompute
        logger.warning("discarding unreadable checkpoint %s: %r", path, exc)
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("key") != key
        or "result" not in payload
    ):
        logger.info("checkpoint %s is stale (key mismatch); recomputing", path)
        return None
    missing = [
        file
        for rank in payload["result"].outputs
        for file in (
            getattr(rank.outputs, "out_path", None),
            getattr(rank.outputs, "part_path", None),
        )
        if file is not None and not file.exists()
    ]
    if missing:
        logger.info("checkpoint %s names missing file %s; recomputing", path, missing[0])
        return None
    GLOBAL_METRICS.inc("checkpoint.restores")
    logger.info("restored stage %r from checkpoint %s", stage, path)
    return payload["result"]


def _write_checkpoint(
    checkpoint_dir: PathLike, stage: str, key: str, result: StageResult
) -> bool:
    """Atomically persist a stage result (tmp file + rename); False if
    the write failed."""
    ckpt_dir = Path(checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    path = _checkpoint_path(ckpt_dir, stage)
    tmp = path.with_suffix(".tmp")
    try:
        with open(tmp, "wb") as f:
            pickle.dump({"key": key, "result": result}, f)
        tmp.replace(path)
    except Exception as exc:  # noqa: BLE001 - checkpointing is best-effort
        logger.warning("failed to write checkpoint %s: %r", path, exc)
        tmp.unlink(missing_ok=True)
        return False
    return True


class ParallelTrinityDriver:
    """Run Trinity with the hybrid MPI+OpenMP Chrysalis."""

    def __init__(self, config: Optional[ParallelTrinityConfig] = None) -> None:
        self.config = config or ParallelTrinityConfig()

    def run(
        self,
        reads: Sequence[SeqRecord],
        workdir: Optional[PathLike] = None,
        checkpoint_dir: Optional[PathLike] = None,
    ) -> StageResult:
        """Assemble ``reads`` with the hybrid Chrysalis.

        Returns a :class:`~repro.obs.result.StageResult` whose ``outputs``
        is the :class:`TrinityResult` and whose ``children`` are the six
        ``mpirun`` StageResults in :data:`STAGE_TABLE` order (jellyfish,
        inchworm, bowtie, gff, rtt, and the fused chrysalis back end; no
        bowtie without ``use_bowtie_scaffolds``) — the per-stage virtual
        timings, and the full span tree a single
        :func:`repro.obs.chrome.write_chrome_trace` can export.

        With ``checkpoint_dir``, each MPI stage's result is pickled there
        after it completes and restored (skipping the launch) on a rerun
        whose reads, stage config, launch shape and upstream stages are
        all identical (:func:`_checkpoint_key`) — stage-level restart
        after a non-recoverable failure.  Stale or corrupt checkpoints
        recompute.  Stages launch via
        :func:`repro.parallel.recovery.mpirun_with_recovery` under
        ``config.faults``.

        ``metrics`` is this run's record: besides the timings it always
        carries ``checkpoint.restores`` and ``checkpoint.writes`` (stages
        restored from / written to ``checkpoint_dir`` by this run) and
        ``faults.rank_losses`` (ranks lost over the six stages).
        """
        cfg = self.config
        wd = Path(workdir) if workdir is not None else None

        logger.info(
            "parallel trinity: %d reads, nprocs=%d, nthreads=%d",
            len(reads), cfg.nprocs, cfg.nthreads,
        )

        digest = reads_digest(reads) if checkpoint_dir is not None else ""
        keys: Dict[str, str] = {}
        restores = writes = 0
        spans: List[Span] = []  # one driver-track ``stage`` span per launch

        def launch(row: StageRow, inputs: Any, stage_config: Any) -> StageResult:
            """Checkpoint restore, else a recovering ``mpirun``, then
            checkpoint write, timed as one host span labelled by the row."""
            nonlocal restores, writes
            stage = row.fn.__name__
            with host_stage(spans, row.label):
                if checkpoint_dir is not None:
                    key = keys[row.key] = _checkpoint_key(
                        row, stage_config, cfg, wd, digest,
                        [keys[up] for up in row.upstream if up in keys],
                    )
                    cached = _load_checkpoint(checkpoint_dir, stage, key)
                    if cached is not None:
                        restores += 1
                        return cached
                res = mpirun_with_recovery(
                    row.fn, cfg.nprocs, inputs, stage_config,
                    faults=cfg.faults, network=cfg.network,
                )
                if checkpoint_dir is not None:
                    writes += _write_checkpoint(checkpoint_dir, stage, key, res)
            return res

        chain = run_chain(cfg, reads, launch, workdir=wd)
        runs = chain.runs
        logger.info(
            "mpi stage makespans: %s (gff imb %.2fx)",
            " ".join(f"{key}={run.makespan:.3f}s" for key, run in runs.items()),
            runs["gff"].imbalance,
        )
        result = chain_result(chain)
        return StageResult(
            stage="parallel-trinity",
            outputs=result,
            makespan=spans[-1].stop,
            spans=spans,
            metrics={
                **{f"stage.{label}_s": s for label, s in stage_seconds(spans).items()},
                "nprocs": float(cfg.nprocs),
                "nthreads": float(cfg.nthreads),
                "inchworm_threads": float(cfg.inchworm_threads),
                "n_transcripts": float(len(result.transcripts)),
                **{f"mpi.{key}_makespan_s": run.makespan for key, run in runs.items()},
                "checkpoint.restores": float(restores),
                "checkpoint.writes": float(writes),
                "faults.rank_losses": sum(
                    run.metrics.get("faults.rank_losses", 0.0) for run in runs.values()
                ),
            },
            children=list(runs.values()),
        )
