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
— all byte-identical to their serial stages at any rank count.  No
compute *stage* runs on the front-end node any more, but the node is not
idle: between launches it turns Bowtie's SAM into scaffold pairs
(:func:`~repro.trinity.bowtie.scaffold_pairs_from_sam`, ~2 ms on the
whitefly-half benchmark library) and, after the last one, reconciles
the candidate transcripts with the mate pairs
(:func:`~repro.trinity.pairs.reconcile_with_pairs`: one seed-and-verify
pass per component, ~15 ms there — it was ~70 ms of per-pair string
scans, a quarter of a one-rank run), unions the ranks' quantified
graphs and writes ``Trinity.fasta``.  That glue is host time outside
every ``mpirun`` (the pipeline benchmark's ``pipeline.glue_s``) and is
not on the modelled clocks.

Every MPI stage conforms to the :class:`repro.parallel.stage.ParallelStage`
protocol, so the six-stage chain is said once: :data:`STAGE_TABLE` names
each stage's registry entry, inputs builder, config accessor and
upstream stages, and :func:`run_chain` walks it with whatever *launcher*
the caller passes — the driver's checkpoint/recovery ``_launch``, or a
traced ``mpirun`` for ``repro profile`` and ``fig-inchworm``.

The result object is a :class:`repro.trinity.pipeline.TrinityResult`, so
serial and parallel outputs feed the same validation harness.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import PipelineError
from repro.obs.metrics import GLOBAL_METRICS
from repro.obs.result import StageResult
from repro.obs.span import Span, host_stage, peak_ram_gb, stage_seconds
from repro.mpi import mpirun
from repro.mpi.faults import FaultPlan
from repro.mpi.network import IDATAPLEX_FDR10, NetworkModel
from repro.parallel.recovery import DEFAULT_RECOVERY, RecoveryPolicy, mpirun_with_recovery
from repro.seq.fasta import write_fasta
from repro.seq.records import SeqRecord
from repro.trinity.bowtie import scaffold_pairs_from_sam
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaResult
from repro.trinity.pairs import reconcile_with_pairs
from repro.trinity.pipeline import TrinityConfig, TrinityResult
from repro.parallel.component_stage import check_strategy
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieStageConfig, mpi_bowtie
from repro.parallel.mpi_inchworm import (
    InchwormInputs,
    InchwormStageConfig,
    mpi_inchworm,
)
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendInputs,
    ChrysalisBackendStageConfig,
    mpi_chrysalis_backend,
)
from repro.parallel.mpi_jellyfish import (
    JellyfishInputs,
    JellyfishStageConfig,
    mpi_jellyfish,
)
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.parallel.mpi_reads_to_transcripts import (
    RttInputs,
    RttStageConfig,
    mpi_reads_to_transcripts,
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
    #: Deterministic fault schedule injected into every MPI stage launch.
    faults: Optional[FaultPlan] = None
    #: Crash-recovery policy; set (or leave default with ``faults``) to
    #: launch stages through :func:`mpirun_with_recovery`.
    recovery: Optional[RecoveryPolicy] = None
    #: Component-dealing strategy for the component-parallel stages
    #: (Inchworm and the fused Chrysalis back end): ``"round_robin"``
    #: (cost-blind chunked deal) or ``"dynamic"`` (master-dealt LPT over
    #: the per-component cost model).
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
        serial pipeline shares, so the two cannot diverge.  Straggler
        faults from ``faults`` slow the matching thread's clock.
        """
        return self.trinity.inchworm_threads

    # -- stage-config accessors (the parallel analogue of TrinityConfig's
    # .inchworm()/.gff()/.rtt()/.butterfly() serial accessors) -------------

    def jellyfish_stage(
        self, workdir: Optional[PathLike] = None
    ) -> JellyfishStageConfig:
        return JellyfishStageConfig(jellyfish=self.trinity.jellyfish(), workdir=workdir)

    def inchworm_stage(
        self, workdir: Optional[PathLike] = None
    ) -> InchwormStageConfig:
        return InchwormStageConfig(
            inchworm=self.trinity.inchworm(),
            n_threads=self.inchworm_threads,
            strategy=self.butterfly_strategy,
            workdir=workdir,
            thread_slowdowns=_inchworm_slowdown_table(
                self.faults, self.nprocs, self.inchworm_threads
            ),
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
            weld_k=self.trinity.weld_k,
            min_kmer_count=self.trinity.min_kmer_count,
            butterfly=self.trinity.butterfly(),
            nthreads=self.nthreads,
            strategy=self.butterfly_strategy,
            workdir=workdir,
        )


def _inchworm_slowdown_table(
    plan: Optional[FaultPlan], nprocs: int, n_threads: int
) -> Optional[Tuple[Tuple[float, ...], ...]]:
    """Straggler factors from ``plan`` as one row of thread factors per rank.

    The fault plan indexes stragglers by a flat id; the distributed
    Inchworm numbers its hybrid workers ``rank * n_threads + thread``, so
    straggler id ``f`` slows thread ``f % n_threads`` of rank
    ``f // n_threads`` (ids past the last worker land nowhere).  Returns
    ``None`` when no straggler lands on a live thread, so the fast
    no-faults path stays allocation-free.  Slowdowns only stretch virtual
    thread clocks — stage output never depends on them.
    """
    if plan is None or not plan.stragglers:
        return None
    rows = [[1.0] * n_threads for _ in range(nprocs)]
    for s in plan.stragglers:
        rank, thread = divmod(s.rank, n_threads)
        if 0 <= rank < nprocs:
            rows[rank][thread] = max(rows[rank][thread], float(s.slowdown))
    if all(f == 1.0 for row in rows for f in row):
        return None
    return tuple(tuple(row) for row in rows)


@dataclass
class StageChain:
    """State of one walk of :data:`STAGE_TABLE`: config, reads, and the
    ``mpirun`` result and host-wall span of every stage launched so far
    (results keyed by row key, both in launch order)."""

    cfg: ParallelTrinityConfig
    reads: Sequence[SeqRecord]
    runs: Dict[str, StageResult] = field(default_factory=dict)
    #: One driver-track ``stage`` span per launch, back to back.
    spans: List[Span] = field(default_factory=list)

    def out(self, key: str) -> Any:
        """Rank 0's typed ``*Outputs`` of stage ``key``."""
        return self.runs[key].outputs[0].outputs

    @property
    def contigs(self) -> Sequence[Any]:
        contigs = self.out("inchworm").contigs
        if not contigs:
            raise PipelineError("inchworm produced no contigs")
        return contigs


@dataclass(frozen=True)
class StageRow:
    """One row of :data:`STAGE_TABLE` — everything the chain, the
    checkpoint key, the metrics and the CLI derive about a stage."""

    key: str  # short name: ``cfg.<key>_stage``, ``mpi.<key>_makespan_s``, ``--stage``
    fn: Callable[..., StageResult]  # the registered ParallelStage body
    label: str  # its driver-track stage span's label
    inputs: Callable[[StageChain], Any]  # the stage's *Inputs from the chain so far
    config: Callable[[ParallelTrinityConfig, Optional[Path]], Any]
    upstream: Tuple[str, ...]  # row keys whose outputs ``inputs`` reads
    file_key: Optional[str] = None  # TrinityResult.files key of outputs[0].out_path
    #: TrinityConfig knobs ``inputs`` reads beyond the stage config
    #: (inter-stage glue) — part of the checkpoint key.
    glue: Tuple[str, ...] = ()
    ram_bytes: Callable[[StageChain], float] = lambda chain: 0.0  # Collectl-style estimate


def _gff_inputs(chain: StageChain) -> GffInputs:
    """Bowtie's SAM becomes scaffold pairs: the one glue step between stages."""
    contigs = chain.contigs
    scaffolds: Sequence[Tuple[int, int]] = ()
    if chain.cfg.trinity.use_bowtie_scaffolds:
        scaffolds = scaffold_pairs_from_sam(
            chain.out("bowtie").records,
            {c.name: i for i, c in enumerate(contigs)},
            contig_lengths={c.name: len(c.seq) for c in contigs},
        )
    return GffInputs(contigs=contigs, reads=chain.reads, extra_pairs=tuple(scaffolds))


def _counts_bytes(chain: StageChain) -> float:
    return chain.out("jellyfish").counts.memory_bytes()


#: The six-stage chain, in launch order.  Adding or removing a stage is
#: one row; nothing else in the driver, the CLI or the experiments names
#: a stage.
STAGE_TABLE: Tuple[StageRow, ...] = (
    StageRow(
        "jellyfish", mpi_jellyfish, "jellyfish[mpi]",
        lambda chain: JellyfishInputs(reads=chain.reads),
        lambda cfg, wd: cfg.jellyfish_stage(workdir=wd),
        upstream=(), file_key="jellyfish_dump", ram_bytes=_counts_bytes,
    ),
    # Components of the k-mer overlap graph dealt to ranks, each rank
    # building successor rows for its own components and walking them
    # (hybrid MPI x threads).
    StageRow(
        "inchworm", mpi_inchworm, "inchworm[mpi]",
        lambda chain: InchwormInputs(counts=chain.out("jellyfish").counts),
        lambda cfg, wd: cfg.inchworm_stage(workdir=wd),
        upstream=("jellyfish",), file_key="inchworm_contigs",
        # The counter, the contigs, and the successor table's real size on
        # its largest holder (absent from a checkpoint an older version wrote).
        ram_bytes=lambda chain: _counts_bytes(chain)
        + sum(len(c.seq) for c in chain.contigs)
        + max(
            rank.metrics.get("table_bytes", 0.0) for rank in chain.runs["inchworm"].outputs
        ),
    ),
    StageRow(
        "bowtie", mpi_bowtie, "chrysalis.bowtie[mpi]",
        lambda chain: BowtieInputs(reads=chain.reads, contigs=chain.contigs),
        lambda cfg, wd: cfg.bowtie_stage(workdir=wd),
        upstream=("inchworm",), file_key="bowtie_sam",
        # The piece indexes' real sizes (absent from a checkpoint an older
        # version wrote).
        ram_bytes=lambda chain: sum(
            rank.metrics.get("index_bytes", 0.0) for rank in chain.runs["bowtie"].outputs
        ),
    ),
    StageRow(
        "gff", mpi_graph_from_fasta, "chrysalis.graph_from_fasta[mpi]",
        _gff_inputs,
        lambda cfg, wd: cfg.gff_stage(),
        upstream=("inchworm", "bowtie"), glue=("use_bowtie_scaffolds",),
    ),
    # Straight after GFF: the fused back end consumes RTT's routing, so
    # no graphs are ever built on the front-end node.
    StageRow(
        "rtt", mpi_reads_to_transcripts, "chrysalis.reads_to_transcripts[mpi]",
        lambda chain: RttInputs(
            reads=chain.reads, contigs=chain.contigs,
            components=chain.out("gff").components,
        ),
        lambda cfg, wd: cfg.rtt_stage(workdir=wd),
        upstream=("inchworm", "gff"), file_key="reads_to_transcripts",
    ),
    # orient + FastaToDebruijn + QuantifyGraph + Butterfly per component
    # on its owner rank; the graphs never cross the wire.
    StageRow(
        "chrysalis", mpi_chrysalis_backend, "chrysalis.backend[mpi]",
        lambda chain: ChrysalisBackendInputs(
            contigs=chain.contigs, reads=chain.reads,
            components=chain.out("gff").components,
            assignments=chain.out("rtt").assignments,
            counts=chain.out("jellyfish").counts,
        ),
        lambda cfg, wd: cfg.chrysalis_stage(workdir=wd),
        upstream=("jellyfish", "inchworm", "gff", "rtt"),
        file_key="chrysalis_backend_fasta",
        ram_bytes=lambda chain: sum(
            q.graph.nbytes
            for rank in chain.runs["chrysalis"].outputs
            for q in rank.outputs.local_quants.values()
        ),
    ),
)

#: ``launch(row, inputs, stage_config) -> StageResult`` — how one row runs.
Launcher = Callable[[StageRow, Any, Any], StageResult]


def _with_upstream(target: str) -> Set[str]:
    """``target`` plus every stage it transitively reads from."""
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
    """Walk :data:`STAGE_TABLE` in order, launching each row via ``launch``.

    Each launch and its RAM estimate run inside one :func:`host_stage`
    span labelled by the row (inputs and the inter-stage glue are built
    outside it).  With ``target``, only that stage and its transitive
    upstream stages run.
    """
    chain = StageChain(cfg, reads)
    needed = _with_upstream(target) if target is not None else None
    for row in STAGE_TABLE:
        if needed is not None and row.key not in needed:
            continue
        inputs = row.inputs(chain)
        stage_config = row.config(cfg, workdir)
        with host_stage(chain.spans, row.label) as st:
            chain.runs[row.key] = launch(row, inputs, stage_config)
            st.ram_bytes = row.ram_bytes(chain)
    return chain


def reads_digest(reads: Sequence[SeqRecord]) -> str:
    """SHA-256 over the reads' names and sequences, in order."""
    h = hashlib.sha256()
    for read in reads:
        h.update(f"{read.name}\n{read.seq}\n".encode())
    return h.hexdigest()


#: Version of what a checkpointed ``StageResult`` pickles to.  Part of
#: every key, so a payload written under another layout — e.g. component
#: graphs as dicts of strings, before they were two arrays — is a logged
#: miss that recomputes, never an object of the wrong shape handed back
#: as "restored".  Bump it with any change to a pickled outputs type.
_CHECKPOINT_LAYOUT = 2


def _checkpoint_key(
    row: StageRow,
    stage_config: Any,
    cfg: ParallelTrinityConfig,
    workdir: Optional[Path],
    digest: str,
    upstream_keys: Sequence[str],
) -> str:
    """Content key of one stage result: everything it depends on.

    The stage and its full config, the launch shape and fault plan, the
    workdir its files land in, the reads' content digest, the glue knobs
    its inputs read, the payload layout version, and — transitively — the
    keys of its upstream stages.  Any mismatch recomputes.
    """
    parts = (
        _CHECKPOINT_LAYOUT, row.fn.__name__, stage_config, cfg.nprocs, cfg.nthreads, cfg.faults,
        str(workdir), digest,
        [(knob, getattr(cfg.trinity, knob)) for knob in row.glue],
        list(upstream_keys),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _checkpoint_path(checkpoint_dir: PathLike, stage: str) -> Path:
    return Path(checkpoint_dir) / f"{stage}.ckpt.pkl"


def _load_checkpoint(
    checkpoint_dir: PathLike, stage: str, key: str
) -> Optional[StageResult]:
    """A previously checkpointed StageResult, or None if absent/stale.

    Corrupt or truncated pickles, payloads without a result and key
    mismatches (other reads, config, nprocs, fault plan or upstream
    stage) are treated as misses — the stage recomputes.
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
    GLOBAL_METRICS.inc("checkpoint.restores")
    logger.info("restored stage %r from checkpoint %s", stage, path)
    return payload["result"]


def _write_checkpoint(
    checkpoint_dir: PathLike, stage: str, key: str, result: StageResult
) -> None:
    """Atomically persist a stage result (tmp file + rename)."""
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
        return
    GLOBAL_METRICS.inc("checkpoint.writes")


class ParallelTrinityDriver:
    """Run Trinity with the hybrid MPI+OpenMP Chrysalis."""

    def __init__(self, config: Optional[ParallelTrinityConfig] = None) -> None:
        self.config = config or ParallelTrinityConfig()

    def _launch(
        self,
        fn: Callable[..., Any],
        *args: Any,
        checkpoint_dir: Optional[PathLike] = None,
        checkpoint_key: Optional[str] = None,
    ) -> StageResult:
        """One MPI stage launch: checkpoint restore, else (recovering)
        ``mpirun``, then checkpoint write."""
        cfg = self.config
        stage = fn.__name__
        if checkpoint_dir is not None:
            cached = _load_checkpoint(checkpoint_dir, stage, checkpoint_key)
            if cached is not None:
                return cached
        if cfg.faults is not None or cfg.recovery is not None:
            res = mpirun_with_recovery(
                fn, cfg.nprocs, *args,
                faults=cfg.faults,
                policy=cfg.recovery or DEFAULT_RECOVERY,
                network=cfg.network,
            )
        else:
            res = mpirun(fn, cfg.nprocs, *args, network=cfg.network)
        if checkpoint_dir is not None:
            _write_checkpoint(checkpoint_dir, stage, checkpoint_key, res)
        return res

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
        inchworm, bowtie, gff, rtt, and the fused chrysalis back end) —
        the per-stage virtual timings, and the full span tree a single
        :func:`repro.obs.chrome.write_chrome_trace` can export.

        With ``checkpoint_dir``, each MPI stage's result is pickled there
        after it completes and restored (skipping the launch) on a rerun
        whose reads, stage config, launch shape and upstream stages are
        all identical (:func:`_checkpoint_key`) — stage-level restart
        after a non-recoverable failure.  Stale or corrupt checkpoints
        recompute.  With ``config.faults``/``config.recovery`` set, stages
        launch via :func:`repro.parallel.recovery.mpirun_with_recovery`.
        """
        cfg = self.config
        wd = Path(workdir) if workdir is not None else None
        if wd is not None:
            wd.mkdir(parents=True, exist_ok=True)

        logger.info(
            "parallel trinity: %d reads, nprocs=%d, nthreads=%d",
            len(reads), cfg.nprocs, cfg.nthreads,
        )

        digest = reads_digest(reads) if checkpoint_dir is not None else ""
        keys: Dict[str, str] = {}

        def launch(row: StageRow, inputs: Any, stage_config: Any) -> StageResult:
            if checkpoint_dir is not None:
                keys[row.key] = _checkpoint_key(
                    row, stage_config, cfg, wd, digest,
                    [keys[up] for up in row.upstream],
                )
            return self._launch(
                row.fn, inputs, stage_config,
                checkpoint_dir=checkpoint_dir, checkpoint_key=keys.get(row.key),
            )

        chain = run_chain(cfg, reads, launch, workdir=wd)
        runs = chain.runs
        files: Dict[str, Path] = {
            row.file_key: chain.out(row.key).out_path
            for row in STAGE_TABLE
            if row.file_key and chain.out(row.key).out_path is not None
        }

        gff = chain.out("gff")
        assignments = chain.out("rtt").assignments
        transcripts = chain.out("chrysalis").transcripts
        # Graphs stay rank-local in the stage; the serial-shaped quants
        # dict (ascending component id, like the serial pipeline's
        # component order) is unioned host-side from the per-rank locals.
        local_quants = {
            cid: q
            for rank in runs["chrysalis"].outputs
            for cid, q in rank.outputs.local_quants.items()
        }
        spans = chain.spans
        if cfg.trinity.use_pair_reconciliation:
            with host_stage(spans, "butterfly.pair_reconciliation"):
                transcripts, _pair_stats = reconcile_with_pairs(
                    transcripts, list(reads), assignments
                )
        if wd is not None:
            files["transcripts"] = wd / "Trinity.fasta"
            write_fasta(files["transcripts"], [t.to_record() for t in transcripts])

        logger.info(
            "mpi stage makespans: %s (gff imb %.2fx)",
            " ".join(f"{key}={run.makespan:.3f}s" for key, run in runs.items()),
            runs["gff"].imbalance,
        )
        # Aggregate the per-rank thread-team totals into the historical
        # pipeline-level attrs (straggler faults still drag speedup down).
        team_serial = sum(r.metrics["team_serial_s"] for r in runs["inchworm"].outputs)
        team_makespan = sum(
            r.metrics["team_makespan_s"] for r in runs["inchworm"].outputs
        )
        result = TrinityResult(
            transcripts=transcripts,
            contigs=chain.contigs,
            gff=GraphFromFastaResult(
                welds=gff.welds, pairs=gff.pairs, components=gff.components
            ),
            assignments=assignments,
            quants=dict(sorted(local_quants.items())),
            counts=chain.out("jellyfish").counts,
            files=files,
        )
        return StageResult(
            stage="parallel-trinity",
            outputs=result,
            makespan=spans[-1].stop,
            spans=spans,
            metrics={
                **{f"stage.{label}_s": s for label, s in stage_seconds(spans).items()},
                "inchworm.n_threads": float(cfg.inchworm_threads),
                "inchworm.team_serial_s": team_serial,
                "inchworm.team_makespan_s": team_makespan,
                "inchworm.speedup": (
                    team_serial / team_makespan if team_makespan > 0 else 1.0
                ),
                "nprocs": float(cfg.nprocs),
                "nthreads": float(cfg.nthreads),
                "inchworm_threads": float(cfg.inchworm_threads),
                "n_transcripts": float(len(transcripts)),
                **{f"mpi.{key}_makespan_s": run.makespan for key, run in runs.items()},
                "peak_ram_gb": peak_ram_gb(spans),
            },
            children=list(runs.values()),
        )
