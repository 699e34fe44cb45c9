"""The measuring process: ``python -m benchmarks.pipeline.child <json>``.

The parent (:mod:`benchmarks.pipeline.cli`) starts a fresh interpreter
per set-up sample so ``setup_s`` and ``peak_rss_mb`` belong to one
workload and import-time or first-call caching cannot hide in a warm
process.  This module is the only one that runs ``repro``; it uses
public names only and prints one JSON object as its last line.

The process confines itself to one CPU before it builds or runs anything
(README, "Why the measuring process is pinned"); only the
``sim.unpinned_*`` diagnostic widens the mask again.

Timed mode (``trace`` 0): set-up (import, inputs, one warm-up run), then
back-to-back operations until the time is used, tracing off, with a burst
of calibration probes after set-up and before and after every timed run
(README, "Why timings are calibrated").  A ``setup_only`` job stops after
the first burst: it is one more ``setup_s`` sample.
Traced mode (``trace`` 1): repeated *passes*; each pass runs the driver
untraced, then chains the six registered stage functions itself with
``trace=True`` exactly as ``ParallelTrinityDriver.run`` does, and reads
``repro.obs.critical`` off every stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set

from repro.errors import ObsError
from repro.mpi import mpirun
from repro.obs.critical import critical_path, verify_attribution
from repro.obs.metrics import GLOBAL_METRICS
from repro.obs.result import StageResult
from repro.obs.span import Span
from repro.parallel import STAGES, ParallelTrinityConfig, ParallelTrinityDriver
from repro.seq.fasta import write_fasta
from repro.seq.records import SeqRecord
from repro.simdata.datasets import DatasetRecipe
from repro.simdata.reads import flatten_reads
from repro.trinity.bowtie import scaffold_pairs_from_sam
from repro.trinity.pairs import reconcile_with_pairs
from repro.trinity.pipeline import TrinityConfig, TrinityPipeline

from benchmarks.pipeline.spec import (
    KERNELS,
    LIBRARY_SEED,
    NTHREADS,
    PROBE,
    PROBES_PER_GAP,
    RESTARTS,
    STAGE_LAYERS,
    Workload,
)

#: Where workdirs, checkpoints and rendered FASTA go: inside the checkout.
WORK_ROOT = Path(__file__).resolve().parent / ".work"

#: Stage checkpoints a restart must restore (one per ``mpirun`` launch).
N_CHECKPOINTS = len(STAGE_LAYERS)

_MICRO_REPS = 5
_MB = 1 << 20


def build_reads(recipe: DatasetRecipe, seed: int) -> List[SeqRecord]:
    """The workload's read library with its pair order shuffled by ``seed``."""
    _txome, pairs = recipe.materialize(seed=LIBRARY_SEED)
    random.Random(seed).shuffle(pairs)
    return flatten_reads(pairs)


def reads_sha256(reads: Sequence[SeqRecord]) -> str:
    h = hashlib.sha256()
    for r in reads:
        h.update(f"{r.name}\n{r.seq}\n".encode())
    return h.hexdigest()


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _noop_body(comm) -> None:
    comm.barrier()


def _allgather_body(comm, payload: bytes) -> None:
    comm.allgather(payload)


@dataclass
class Operation:
    """One ``ParallelTrinityDriver.run`` and, with files, the restarts after it."""

    host_wall_s: float
    result: StageResult
    digest: str  # SHA-256 of its Trinity.fasta
    restart_wall_s: List[float] = field(default_factory=list)
    restores: List[float] = field(default_factory=list)  # checkpoints restored per restart
    checkpoint_bytes: int = 0
    workdir_bytes: int = 0

    @property
    def virtual_makespan_s(self) -> float:
        """Seconds the modelled cluster takes: the six ``mpirun`` makespans."""
        return sum(child.makespan for child in self.result.children)


@dataclass
class Chain:
    """The six traced stage runs chained like ``driver.run``."""

    wall_s: float
    runs: Dict[str, StageResult]
    host_spans: List[Dict[str, Any]]  # the covering "chain" span first
    counts: Dict[str, int]

    @property
    def virtual_makespan_s(self) -> float:
        return sum(run.makespan for run in self.runs.values())

    @property
    def gap_s(self) -> float:
        """Chain wall that no child span covers."""
        return self.wall_s - sum(s["end"] - s["start"] for s in self.host_spans[1:])


class Bench:
    """One workload at one seed inside this process."""

    def __init__(self, wl: Workload, seed: int, scratch: Path, cpus: Set[int]) -> None:
        self.wl = wl
        self.scratch = scratch
        self.cpus = cpus  # what the process may use when it is not pinned
        self.reads = build_reads(wl.recipe, seed)
        trinity = TrinityConfig(seed=seed, inchworm_threads=wl.inchworm_threads)
        self.config = self._config(trinity, wl.nprocs)
        self.one_rank_config = self._config(trinity, 1)
        #: The calibration probe's input: the same for every workload and seed.
        self.probe_reads = flatten_reads(PROBE.materialize(seed=LIBRARY_SEED)[1])
        self.attempted = 0
        #: ``Trinity.fasta`` SHA-256 of every run -> how many runs gave it.
        self.digests: Counter = Counter()
        #: The digest every run must reproduce: the serial pipeline's
        #: bytes.  With Inchworm threads the repository promises less —
        #: output depends only on ``(seed, inchworm_threads)``, never on
        #: the deal or the rank count, and is not the serial assembler's —
        #: so there the one-rank driver run is the reference.
        self.reference: Optional[str] = None
        self.failures: List[str] = []

    def _config(self, trinity: TrinityConfig, nprocs: int) -> ParallelTrinityConfig:
        return ParallelTrinityConfig(
            trinity=trinity, nprocs=nprocs, nthreads=NTHREADS,
            butterfly_strategy=self.wl.strategy,
        )

    # -- output check ------------------------------------------------------
    def _digest(self, records: Sequence[SeqRecord], written: Optional[Path] = None) -> str:
        """SHA-256 of a run's ``Trinity.fasta``, rendered here if it wrote none."""
        if written is None:
            written = self.scratch / "Trinity.render.fasta"
            write_fasta(written, records)
        return hashlib.sha256(written.read_bytes()).hexdigest()

    def _count(self, digest: str) -> str:
        """One more attempted run, and what it produced."""
        self.attempted += 1
        self.digests[digest] += 1
        return digest

    def serial(self) -> StageResult:
        """The serial pipeline on the same reads: the plain single-threaded baseline."""
        ref = TrinityPipeline(self.config.trinity).run(self.reads)
        if self.wl.inchworm_threads == 1:
            self.reference = self._digest(ref.outputs.transcript_records())
        return ref

    def one_rank(self) -> "Operation":
        op = self._run(self.one_rank_config)
        if self.wl.inchworm_threads > 1:
            self.reference = op.digest
        return op

    def failed(self) -> int:
        """Runs that differed from the reference, plus broken invariants."""
        if self.reference is None:
            self.serial() if self.wl.inchworm_threads == 1 else self.one_rank()
        wrong = sum(n for digest, n in self.digests.items() if digest != self.reference)
        failed = wrong + len(self.failures)
        if wrong:
            self.failures.append(f"{wrong} run(s) differ from the reference Trinity.fasta")
        return failed

    # -- operations --------------------------------------------------------
    def _run(self, config: ParallelTrinityConfig, root: Optional[Path] = None) -> Operation:
        """One timed ``driver.run``, its output hashed after the clock stops."""
        driver = ParallelTrinityDriver(config)
        workdir, ckpt = (root / "work", root / "ckpt") if root else (None, None)
        t0 = time.perf_counter()
        result = driver.run(self.reads, workdir=workdir, checkpoint_dir=ckpt)
        wall = time.perf_counter() - t0
        out = result.outputs
        digest = self._count(self._digest(out.transcript_records(), out.files.get("transcripts")))
        return Operation(wall, result, digest)

    def in_memory(self) -> Operation:
        return self._run(self.config)

    def cold_and_restarts(self, after_cold: Optional[Callable[[], None]] = None) -> Operation:
        """A cold run into a fresh directory, then restarts from its checkpoints."""
        root = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            op = self._run(self.config, root)
            if after_cold:
                after_cold()
            for _ in range(RESTARTS):
                before = GLOBAL_METRICS.get("checkpoint.restores")
                op.restart_wall_s.append(self._run(self.config, root).host_wall_s)
                op.restores.append(GLOBAL_METRICS.get("checkpoint.restores") - before)
                if op.restores[-1] != N_CHECKPOINTS:
                    self.failures.append(
                        f"restart restored {op.restores[-1]:g} checkpoints, not {N_CHECKPOINTS}"
                    )
            op.checkpoint_bytes = _tree_bytes(root / "ckpt")
            op.workdir_bytes = _tree_bytes(root / "work")
            return op
        finally:
            shutil.rmtree(root)

    def operation(self, after_run: Optional[Callable[[], None]] = None) -> Operation:
        """The workload's own operation; ``after_run`` is called as its timed run ends."""
        if self.wl.files:
            return self.cold_and_restarts(after_run)
        op = self.in_memory()
        if after_run:
            after_run()
        return op

    def probes(self) -> List[float]:
        """Host seconds of a few calibration probes, back to back.

        A probe is the workload's own driver configuration, in memory, on
        a tiny fixed read set: the program itself, so whatever slows the
        host slows the probe the way it slows the operation beside it.
        Only ratios of probe times within one process are ever used, so a
        change to the program cancels out of them.
        """
        walls = []
        for _ in range(PROBES_PER_GAP):
            driver = ParallelTrinityDriver(self.config)
            t0 = time.perf_counter()
            driver.run(self.probe_reads)
            walls.append(time.perf_counter() - t0)
        return walls

    # -- the traced chain --------------------------------------------------
    def chain(self) -> Chain:
        """``driver.run`` spelled out over the registry, every launch traced."""
        cfg, tcfg, reads = self.config, self.config.trinity, self.reads
        root = Path(tempfile.mkdtemp(dir=self.scratch)) if self.wl.files else None
        workdir = root / "work" if root else None
        runs: Dict[str, StageResult] = {}
        spans: List[Dict[str, Any]] = []

        @contextmanager
        def host_span(name: str) -> Iterator[None]:
            t0 = time.perf_counter()
            yield
            spans.append({"name": name, "start": t0 - begin, "end": time.perf_counter() - begin,
                          "parent": "chain", "workload": self.wl.name})

        def launch(stage: str, stage_config: Any, **inputs: Any) -> Any:
            spec = STAGES[stage]
            with host_span(stage):
                runs[stage] = mpirun(
                    spec.fn, cfg.nprocs, spec.inputs_type(**inputs), stage_config,
                    network=cfg.network, trace=True,
                )
            return runs[stage].outputs[0]

        begin = time.perf_counter()
        try:
            counts = launch("jellyfish", cfg.jellyfish_stage(workdir=workdir), reads=reads).counts
            contigs = launch(
                "inchworm", cfg.inchworm_stage(workdir=workdir), counts=counts
            ).contigs
            sams = launch(
                "bowtie", cfg.bowtie_stage(workdir=workdir), reads=reads, contigs=contigs
            ).records
            scaffolds: list = []
            if tcfg.use_bowtie_scaffolds:
                with host_span("glue.scaffold_pairs"):
                    scaffolds = scaffold_pairs_from_sam(
                        sams,
                        {c.name: i for i, c in enumerate(contigs)},
                        contig_lengths={c.name: len(c.seq) for c in contigs},
                    )
            components = launch(
                "gff", cfg.gff_stage(),
                contigs=contigs, reads=reads, extra_pairs=tuple(scaffolds),
            ).components
            assignments = launch(
                "rtt", cfg.rtt_stage(workdir=workdir),
                reads=reads, contigs=contigs, components=components,
            ).assignments
            transcripts = launch(
                "chrysalis-backend", cfg.chrysalis_stage(workdir=workdir),
                contigs=contigs, reads=reads, components=components,
                assignments=assignments, counts=counts,
            ).transcripts
            if tcfg.use_pair_reconciliation:
                with host_span("glue.reconcile_pairs"):
                    transcripts, _stats = reconcile_with_pairs(
                        transcripts, list(reads), assignments
                    )
            wall = time.perf_counter() - begin
        finally:
            if root:
                shutil.rmtree(root)
        spans.insert(0, {"name": "chain", "start": 0.0, "end": wall,
                         "parent": None, "workload": self.wl.name})
        self._count(self._digest([t.to_record() for t in transcripts]))
        return Chain(
            wall_s=wall, runs=runs, host_spans=spans,
            counts={"n_kmers": len(counts), "n_contigs": len(contigs),
                    "n_components": len(components), "n_transcripts": len(transcripts)},
        )

    def unpinned_chain(self) -> Chain:
        """The traced chain on every CPU the process was given.

        Rank threads then run concurrently between GIL hand-offs and
        their thread-CPU clocks absorb the contention: the gap to the
        pinned chain is host noise inside the virtual clocks, not model.
        """
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            return self.chain()
        finally:
            os.sched_setaffinity(0, pinned)

    def micro(self) -> Dict[str, float]:
        """Host wall of the launcher alone and of one 1 MB-per-rank allgather."""
        def timed(body, *args) -> float:
            walls = []
            for _ in range(_MICRO_REPS):
                t0 = time.perf_counter()
                mpirun(body, self.wl.nprocs, *args, network=self.config.network)
                walls.append(time.perf_counter() - t0)
            return median(walls)

        return {
            "mpi.noop_launch_s": timed(_noop_body),
            "mpi.allgather_1mb_s": timed(_allgather_body, bytes(_MB)),
        }

    # -- one traced pass ---------------------------------------------------
    def _stage_layer(self, stage: str, run: StageResult) -> Dict[str, float]:
        """Critical-path attribution of one traced stage."""
        _monitor, prefix, regions = STAGE_LAYERS[stage]
        try:
            verify_attribution(run)
        except ObsError as exc:
            self.failures.append(f"{stage}: {exc}")
        report = critical_path(run)
        crit = report.critical
        if abs(crit.total - run.makespan) > 1e-9:
            self.failures.append(
                f"{stage}: compute+wait+comm {crit.total} != makespan {run.makespan}"
            )
        out = {
            "makespan_s": run.makespan,
            "compute_s": crit.compute,
            "wait_s": crit.wait,
            "comm_s": crit.comm,
            "serial_s": report.serial_time,
            "imbalance": run.imbalance,
            "rank_compute_sum_s": sum(r.compute for r in report.ranks),
            "bytes_sent": run.metrics["bytes_sent"],
            "n_collectives": run.metrics["n_collectives"],
        }
        # Regions are enumerated from the spans; the declaration only says
        # which names BENCHMARK.json promised, and a drift is a failure.
        phases: Dict[str, float] = {}
        for span in run.spans:
            if span.kind == "phase" and span.track == f"rank {report.critical_rank}":
                region = span.label.removeprefix(prefix + ":")
                phases[region] = phases.get(region, 0.0) + span.duration
        if set(phases) != set(regions):
            self.failures.append(
                f"{stage}: regions {sorted(phases)} are not the declared {sorted(regions)}"
            )
        out.update({f"phase.{r}_s": phases.get(r, 0.0) for r in regions})
        return {f"{stage}.{k}": v for k, v in out.items()}

    def traced_pass(self) -> Dict[str, Any]:
        """Every per-layer metric once, plus the chain for the span dump."""
        wl = self.wl
        in_memory = self.in_memory()
        cold = self.cold_and_restarts()
        native = cold if wl.files else in_memory
        chain = self.chain()
        unpinned = self.unpinned_chain()
        serial = self.serial()
        one_rank = self.one_rank() if wl.nprocs > 1 else native

        m: Dict[str, float] = {}
        driver_children = {c.stage: c for c in native.result.children}
        stage_host = 0.0
        serial_s = 0.0
        for stage, (monitor, _prefix, _regions) in STAGE_LAYERS.items():
            run = chain.runs[stage]
            m.update(self._stage_layer(stage, run))
            host = native.result.metrics[f"stage.{monitor}_s"]
            m[f"{stage}.host_wall_s"] = host
            m[f"{stage}.sim_overhead_s"] = host - m[f"{stage}.rank_compute_sum_s"]
            stage_host += host
            serial_s += m[f"{stage}.serial_s"]
            # Exact counts pin the hand-written chain to the driver's own run.
            untraced = driver_children[STAGES[stage].fn.__name__]
            for count in ("bytes_sent", "n_collectives"):
                if untraced.metrics[count] != run.metrics[count]:
                    self.failures.append(
                        f"{stage}.{count}: chain {run.metrics[count]:g} != "
                        f"driver {untraced.metrics[count]:g}"
                    )
        for monitor, kernel in KERNELS.items():
            m[f"kernel.{kernel}_s"] = serial.metrics[f"stage.{monitor}_s"]

        out = native.result.outputs
        driver_counts = {"n_kmers": len(out.counts), "n_contigs": len(out.contigs),
                         "n_components": out.n_components, "n_transcripts": len(out.transcripts)}
        if not driver_counts == chain.counts == unpinned.counts:
            self.failures.append(
                f"counts: driver {driver_counts}, chain {chain.counts}, "
                f"unpinned chain {unpinned.counts}"
            )
        m.update({f"pipeline.{k}": float(v) for k, v in driver_counts.items()})
        m["pipeline.host_wall_s"] = native.host_wall_s
        m["pipeline.glue_s"] = native.host_wall_s - stage_host
        m["pipeline.traced_virtual_makespan_s"] = chain.virtual_makespan_s
        m["pipeline.serial_fraction"] = serial_s / chain.virtual_makespan_s
        m["pipeline.virtual_speedup"] = one_rank.virtual_makespan_s / native.virtual_makespan_s
        m["sim.unpinned_host_wall_s"] = unpinned.wall_s
        m["sim.unpinned_virtual_makespan_s"] = unpinned.virtual_makespan_s
        m["sim.clock_inflation"] = unpinned.virtual_makespan_s / chain.virtual_makespan_s
        m.update(self.micro())
        m["obs.trace_overhead_frac"] = (chain.wall_s - stage_host) / stage_host
        m["obs.chain_gap_s"] = chain.gap_s
        m["io.overhead_s"] = cold.host_wall_s - in_memory.host_wall_s
        m["checkpoint.restart_wall_s"] = median(cold.restart_wall_s)
        m["checkpoint.restores"] = min(cold.restores)
        m["checkpoint.bytes"] = float(cold.checkpoint_bytes)
        m["workdir.bytes"] = float(cold.workdir_bytes)
        return {"metrics": m, "chain": chain}


def chrome_trace(wl: Workload, chain: Chain) -> Dict[str, Any]:
    """Host spans (host seconds) over each stage's virtual spans (virtual seconds)."""
    host = [
        Span("stage", s["start"], s["end"], s["name"], track="driver",
             attrs={"parent": s["parent"], "workload": s["workload"], "clock": "host"})
        for s in chain.host_spans
    ]
    tree = StageResult(
        stage=f"{wl.name} traced chain", makespan=chain.wall_s, spans=host,
        children=list(chain.runs.values()),
    )
    return tree.chrome_trace()


def run_timed(bench: Bench, seconds: float, spawned_at: float,
              setup_only: bool) -> Dict[str, Any]:
    bench.operation()  # warm-up: first-call caches fill inside set-up
    out: Dict[str, Any] = {
        "setup_s": time.time() - spawned_at,
        "host_wall_s": [], "virtual_makespan_s": [], "restart_wall_s": [],
        # Probes taken just before and just after timed run i.
        "probe_before_s": [], "probe_after_s": [],
    }
    bench.probes()  # the probe's own first call
    before = out["setup_probe_s"] = bench.probes()
    # Read where every process has done the same work, so a faster host,
    # fitting more operations in, does not read a larger peak.  Linux
    # reports ru_maxrss in KiB.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if setup_only:
        return out
    took = 0.0
    deadline = time.perf_counter() + seconds
    while not out["host_wall_s"] or time.perf_counter() + took < deadline:
        t0 = time.perf_counter()
        after: List[float] = []
        # Only its numbers are kept: results would pile up in RSS.
        op = bench.operation(after_run=lambda: after.extend(bench.probes()))
        out["host_wall_s"].append(op.host_wall_s)
        out["virtual_makespan_s"].append(op.virtual_makespan_s)
        out["restart_wall_s"] += op.restart_wall_s
        out["probe_before_s"].append(before)
        out["probe_after_s"].append(after)
        # In memory the next run starts where these probes ended; with
        # files the restarts came in between, so probe again.
        before = bench.probes() if bench.wl.files else after
        took = time.perf_counter() - t0
    return out


def run_traced(bench: Bench, seconds: float, trace_out: Optional[str]) -> Dict[str, Any]:
    bench.operation()  # warm-up, as in timed mode
    passes: List[Dict[str, float]] = []
    took = 0.0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + took < deadline:
        t0 = time.perf_counter()
        last = bench.traced_pass()
        took = time.perf_counter() - t0
        passes.append(last["metrics"])
    chain: Chain = last["chain"]
    if trace_out:
        out = Path(trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(chrome_trace(bench.wl, chain)))
    return {"passes": passes, "host_spans": chain.host_spans}


def main(argv: Sequence[str]) -> int:
    job = json.loads(argv[0])
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    recipe = DatasetRecipe(**job["workload"].pop("recipe"))
    wl = Workload(recipe=recipe, **job["workload"])
    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        bench = Bench(wl, job["seed"], scratch, cpus)
        if job["trace"]:
            result = run_traced(bench, job["seconds"], job["trace_out"])
        else:
            result = run_timed(bench, job["seconds"], job["spawned_at"], job["setup_only"])
        # A set-up sample's warm-up run is neither checked nor counted: the
        # reference it would be checked against costs as much as the set-up.
        checked = not job["setup_only"]
        result.update(
            attempted=bench.attempted if checked else 0,
            failed=bench.failed() if checked else 0, failures=bench.failures,
            reads_sha256=reads_sha256(bench.reads), n_reads=len(bench.reads),
        )
    finally:
        shutil.rmtree(scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
