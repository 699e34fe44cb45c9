"""Parent process: start the measuring children, pool, print, record.

The parent never imports the pipeline's compute modules and generates no
load of its own while a child measures: one client, closed loop,
children one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from statistics import mean, median
from typing import Any, Dict, List, Optional, Sequence

import numpy

from benchmarks.pipeline.spec import (
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    Metric,
    Workload,
    workload,
)

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
DEFAULT_RECORD = PACKAGE / ".work" / "record.json"
FLOOR_CACHE = PACKAGE / ".work" / "probe_floor.json"

#: Fresh processes per timed measurement: one measures, the others only
#: set up; ``setup_s`` and ``peak_rss_mb`` are medians over all of them.
SETUP_SAMPLES = 3

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150


def spawn(wl: Workload, seed: int, seconds: float, trace: int,
          trace_out: Optional[Path] = None, setup_only: bool = False) -> Dict[str, Any]:
    """Run one measuring child to completion and return what it printed."""
    job = {
        "workload": asdict(wl), "seed": seed, "seconds": seconds, "trace": trace,
        "trace_out": str(trace_out) if trace_out else None, "setup_only": setup_only,
        "spawned_at": time.time(),
    }
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.pipeline.child", json.dumps(job)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _entry(metric: Metric, samples: Sequence[float], **extra: Any) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "value": median(samples),
        "stat": metric.stat, "unit": metric.unit, "better": metric.better,
        "label": metric.label, "min": min(samples), "max": max(samples),
        "n": len(samples), "samples": list(samples), **extra,
    }
    if metric.bound is not None:
        entry["bound"] = metric.bound
    return entry


def _source_digest() -> str:
    """SHA-256 over the program's sources: a probe time belongs to one version of them."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def probe_floor(wl: Workload, bursts: Sequence[Sequence[float]]) -> Dict[str, Any]:
    """The fastest probe of this workload this checkout has seen on these sources.

    One invocation that falls into a slow phase of the host sees no probe
    at the host's real speed; the fastest one of the earlier invocations
    is kept in ``.work/`` for it.  A first invocation has only its own.
    """
    own = min(p for burst in bursts for p in burst)
    key = f"{wl.name}:{_source_digest()}"
    try:
        cache = json.loads(FLOOR_CACHE.read_text())
    except (OSError, ValueError):
        cache = {}
    kept = cache.get(key)
    floor = own if kept is None else min(own, kept)
    if floor != kept:
        FLOOR_CACHE.parent.mkdir(parents=True, exist_ok=True)
        scratch = FLOOR_CACHE.with_suffix(".tmp")
        scratch.write_text(json.dumps({**cache, key: floor}))
        os.replace(scratch, FLOOR_CACHE)
    return {"floor_s": floor, "own_fastest_s": own, "from_earlier_invocation": floor < own}


def calibrate(raw: float, floor_s: float, beside: Sequence[float]) -> float:
    """A time scaled to the host's speed at the fastest probe.

    ``beside`` are the probes taken next to the timed interval: their
    mean over the fastest probe is how much slower than its best the
    host was around it.
    """
    return raw * floor_s / mean(beside)


def _merge_accounting(children: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    inputs = {(c["reads_sha256"], c["n_reads"]) for c in children}
    if len(inputs) != 1:
        raise RuntimeError(f"children of one seed built different inputs: {inputs}")
    sha, n_reads = inputs.pop()
    return {
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "failures": [f for c in children for f in c["failures"]],
        "reads_sha256": sha,
        "n_reads": n_reads,
    }


def measure_timed(wl: Workload, seed: int, seconds: float,
                  setup_samples: int = SETUP_SAMPLES) -> Dict[str, Any]:
    """End-to-end metrics, tracing off."""
    child = spawn(wl, seed, seconds, trace=0)
    children = [child] + [
        spawn(wl, seed, 0, trace=0, setup_only=True) for _ in range(setup_samples - 1)
    ]
    beside = [b + a for b, a in zip(child["probe_before_s"], child["probe_after_s"])]
    probe = probe_floor(wl, beside + [c["setup_probe_s"] for c in children])
    floor = probe["floor_s"]
    out = _merge_accounting(children)
    out["metrics"] = {}
    for m in END_TO_END:
        if m.stat != "calibrated_median":
            out["metrics"][m.name] = _entry(m, [c[m.name] for c in children])
            continue
        if m.name == "setup_s":
            raw = [c["setup_s"] for c in children]
            probes = [c["setup_probe_s"] for c in children]
        else:
            raw, probes = child[m.name], beside
        out["metrics"][m.name] = _entry(
            m, [calibrate(r, floor, p) for r, p in zip(raw, probes)],
            raw_samples=raw, probe_s=probes,
        )
    out["probe"] = probe
    out["restart_wall_s"] = child["restart_wall_s"]
    return out


def measure_traced(wl: Workload, seed: int, seconds: float,
                   trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """Per-layer metrics from traced passes in one child."""
    child = spawn(wl, seed, seconds, trace=1, trace_out=trace_out)
    passes = child["passes"]
    out = _merge_accounting([child])
    declared = {m.name for m in PER_LAYER}
    if set(passes[0]) != declared:
        raise RuntimeError(
            f"traced pass emitted {sorted(set(passes[0]) ^ declared)} "
            "outside the per-layer declaration"
        )
    out["metrics"] = {}
    for m in PER_LAYER:
        samples = [p[m.name] for p in passes]
        if m.label == "count" and len(set(samples)) != 1:
            out["failed"] += 1
            out["failures"].append(f"{m.name} did not repeat across passes: {samples}")
        out["metrics"][m.name] = _entry(m, samples)
    out["host_spans"] = child["host_spans"]
    return out


def measure(wl: Workload, seed: int, seconds: float, trace: Optional[int],
            trace_dir: Optional[Path] = None,
            setup_samples: int = SETUP_SAMPLES) -> Dict[str, Any]:
    """One workload: timed (``trace`` 0), traced (1) or both (None), merged."""
    parts = []
    if trace in (None, 0):
        parts.append(measure_timed(wl, seed, seconds, setup_samples))
    if trace in (None, 1):
        trace_out = trace_dir / f"{wl.name}.trace.json" if trace_dir else None
        parts.append(measure_traced(wl, seed, seconds, trace_out))
    out = parts[0]
    for extra in parts[1:]:
        if extra["reads_sha256"] != out["reads_sha256"]:
            raise RuntimeError("timed and traced children built different inputs")
        for key in ("attempted", "failed"):
            out[key] += extra[key]
        out["failures"] += extra["failures"]
        out["metrics"].update(extra["metrics"])
        out["host_spans"] = extra["host_spans"]
    out["failed_fraction"] = out["failed"] / out["attempted"]
    out.update(name=wl.name, why=wl.why, config=asdict(wl))
    return out


def render(result: Dict[str, Any]) -> str:
    """Every metric of one workload by name, with its unit."""
    lines = [
        f"== {result['name']}: {result['n_reads']} reads, "
        f"failed {result['failed']}/{result['attempted']} "
        f"(failed_fraction {result['failed_fraction']:g})"
    ]
    metrics = result["metrics"]
    if "host_wall_s" in metrics:
        rate = result["n_reads"] / metrics["host_wall_s"]["value"]
        lines.append(f"   {'reads_per_s':44} {rate:14.6g} 1/s       (not gated)")
    width = max(len(name) for name in metrics)
    for name, e in metrics.items():
        lines.append(
            f"   {name:{max(width, 44)}} {e['value']:14.6g} {e['unit']:9} {e['stat']:6} of "
            f"[{e['min']:.6g} .. {e['max']:.6g}] n={e['n']} {e['label']}"
            + (f" bound {e['bound']:g}" if "bound" in e else "")
        )
    if result.get("restart_wall_s"):
        r = sorted(result["restart_wall_s"])
        lines.append(f"   {'restart_wall_s (timed children)':44} {median(r):14.6g} s      "
                     f"[{r[0]:.6g} .. {r[-1]:.6g}] n={len(r)} measured")
    if "obs.chain_gap_s" in metrics:
        lines.append(f"   traced chain: {metrics['obs.chain_gap_s']['value'] * 1e3:.3f} ms of "
                     "host wall outside every child span")
    lines += [f"   FAILURE: {f}" for f in result["failures"]]
    return "\n".join(lines)


def _git_commit() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, seconds: float) -> Dict[str, Any]:
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "setup_samples": SETUP_SAMPLES,
    }


def run_set(names: Sequence[str], seed: int, seconds: float, trace: Optional[int],
            trace_dir: Optional[Path]) -> List[Dict[str, Any]]:
    results = []
    for name in names:
        results.append(measure(workload(name), seed, seconds, trace, trace_dir))
        print(render(results[-1]), flush=True)
    return results


def selfcheck(a: Sequence[Dict[str, Any]], b: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """A/A: set ``b`` against set ``a`` of the same code, by the benchmark's own bounds."""
    rows, ok = [], True
    for ra, rb in zip(a, b):
        for m in END_TO_END:
            va, vb = ra["metrics"][m.name]["value"], rb["metrics"][m.name]["value"]
            worse = (vb - va) / va if m.better == "lower" else (va - vb) / va
            within = worse <= m.bound
            ok &= within
            rows.append({"workload": ra["name"], "metric": m.name, "a": va, "b": vb,
                         "worsening": worse, "bound": m.bound, "within": within})
        for m in PER_LAYER:
            if m.label != "count":
                continue
            va, vb = ra["metrics"][m.name]["value"], rb["metrics"][m.name]["value"]
            if va != vb:
                ok = False
                rows.append({"workload": ra["name"], "metric": m.name, "a": va, "b": vb,
                             "within": False})
    return {"ok": ok, "rows": rows}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m benchmarks.pipeline", description=__doc__)
    ap.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                    help="one workload (default: all, in declaration order)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="measuring time per workload and mode")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, tracing off; 1: per-layer metrics "
                         "from traced passes (default: both)")
    ap.add_argument("--out", type=Path, help="write the JSON record here")
    ap.add_argument("--trace-out", type=Path,
                    help="directory for one Chrome-trace JSON per workload")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run everything twice and fail unless the second set is "
                         "within every end-to-end bound of the first")
    args = ap.parse_args(argv)

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    trace = None if args.selfcheck else args.trace
    results = run_set(names, args.seed, args.seconds, trace, args.trace_out)
    record: Dict[str, Any] = {
        "benchmark": "benchmarks.pipeline",
        "environment": environment(args.seed, args.seconds),
        "workloads": results,
    }
    ok = all(r["failed"] == 0 for r in results)
    if args.selfcheck:
        print("-- selfcheck: second set --", flush=True)
        second = run_set(names, args.seed, args.seconds, None, None)
        record["selfcheck"] = selfcheck(results, second)
        record["selfcheck"]["second_set"] = second
        ok &= record["selfcheck"]["ok"] and all(r["failed"] == 0 for r in second)
        for row in record["selfcheck"]["rows"]:
            print(f"   A/A {row['workload']:18} {row['metric']:22} a={row['a']:.6g} "
                  f"b={row['b']:.6g} "
                  + (f"worsening {row['worsening']:+.4f} of bound {row['bound']:g} "
                     if "bound" in row else "count differs ")
                  + ("ok" if row["within"] else "OUTSIDE"))

    out = args.out or (None if args.workload else DEFAULT_RECORD)
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1))
        print(f"record: {out}")
    if args.workload:
        (r,) = results
        print(json.dumps({
            "correct": r["failed"] == 0,
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {n: {"value": e["value"], "unit": e["unit"]}
                        for n, e in r["metrics"].items()},
        }))
    return 0 if ok else 1
