"""Command-line interface: the ``Trinity.pl`` equivalent plus utilities.

The paper's software methodology extends ``Trinity.pl`` "with an argument
for the number of processes (nprocs)"; ``repro assemble --nprocs N`` is
that entry point here.

Subcommands
-----------
simulate     write a synthetic dataset (reads + reference) to FASTA
assemble     run the pipeline on a reads FASTA (serial, or --nprocs N hybrid)
validate     compare two transcript FASTAs (Fig 4 categories)
recovery     score a transcript FASTA against an annotated reference
stats        assembly statistics (N50 etc.) of a FASTA
profile      trace one MPI stage: critical path, Gantt, Chrome export
faults       sweep injected crash/straggler/flaky-IO rates vs makespan
experiments  regenerate paper figures (same as python -m repro.experiments)

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.seq.fasta import read_fasta, write_fasta
from repro.seq.stats import assembly_stats
from repro.simdata import get_recipe, list_recipes
from repro.util.fmt import format_table, human_time


def _cmd_simulate(args: argparse.Namespace) -> int:
    recipe = get_recipe(args.recipe)
    paths = recipe.write(args.out, seed=args.seed)
    print(f"wrote {paths['reads']}")
    print(f"wrote {paths['reference']}")
    return 0


def _cmd_assemble(args: argparse.Namespace) -> int:
    from repro.trinity import TrinityConfig, TrinityPipeline

    reads = read_fasta(args.reads)  # sanitised by the chain, before any launch
    config = TrinityConfig(k=args.k, seed=args.seed, max_mem_reads=args.max_mem_reads)
    if args.nprocs > 1:
        from repro.parallel import ParallelTrinityDriver
        from repro.parallel.driver import ParallelTrinityConfig

        result = ParallelTrinityDriver(
            ParallelTrinityConfig(trinity=config, nprocs=args.nprocs, nthreads=args.nthreads)
        ).run(reads, workdir=args.workdir)
        gff, rtt, bowtie = (
            result.metrics[f"mpi.{key}_makespan_s"] for key in ("gff", "rtt", "bowtie")
        )
        print(
            f"hybrid Chrysalis ({args.nprocs} ranks x {args.nthreads} threads): "
            f"GFF {gff:.3f}s, RTT {rtt:.3f}s, Bowtie {bowtie:.3f}s (virtual)"
        )
    else:
        result = TrinityPipeline(config).run(reads, workdir=args.workdir)
    out = Path(args.out)
    write_fasta(out, [t.to_record() for t in result.transcripts])
    print(
        f"{len(reads)} reads -> {len(result.contigs)} contigs -> "
        f"{result.n_components} components -> {len(result.transcripts)} transcripts"
    )
    for span in result.spans:
        print(f"  {span.label:40s} {human_time(span.duration)}")
    print(f"wrote {out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import all_vs_all_best_hits, categorize_matches

    queries = [r.seq for r in read_fasta(args.query)]
    targets = [r.seq for r in read_fasta(args.target)]
    cats = categorize_matches(all_vs_all_best_hits(queries, targets))
    print(
        format_table(
            ["category", "count", "fraction"],
            [
                ["(a) full length, 100% identity", cats.full_identical, f"{cats.frac_full_identical:.3f}"],
                ["(b) full length, <100% identity", cats.full_partial_identity, ""],
                ["(c) partial length", cats.partial_length, ""],
                ["unmatched", cats.unmatched, ""],
            ],
        )
    )
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    from repro.validation import reference_recovery

    transcripts = [r.seq for r in read_fasta(args.transcripts)]
    reference = read_fasta(args.reference)
    rec = reference_recovery(
        transcripts, reference, min_identity=args.min_identity, min_coverage=args.min_coverage
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ["genes full-length", f"{rec.genes_full_length}/{rec.n_reference_genes}"],
                ["isoforms full-length", f"{rec.isoforms_full_length}/{rec.n_reference_isoforms}"],
                ["fused genes", rec.fused_genes],
                ["fused isoforms", rec.fused_isoforms],
            ],
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    seqs = [r.seq for r in read_fasta(args.fasta)]
    s = assembly_stats(seqs)
    print(
        format_table(
            ["n", "total bp", "N50", "mean", "max", "GC"],
            [s.as_row()],
        )
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.mpi import mpirun
    from repro.obs import critical_path, render_gantt, verify_attribution
    from repro.parallel.driver import ParallelTrinityConfig, run_chain
    from repro.simdata.reads import flatten_reads
    from repro.trinity import TrinityConfig

    _txome, pairs = get_recipe(args.recipe).materialize(seed=args.seed)
    cfg = ParallelTrinityConfig(
        trinity=TrinityConfig(
            seed=args.seed,
            # --nthreads is the profiled stage's team: Inchworm's own knob
            # when it is the target, the serial assembler upstream otherwise.
            inchworm_threads=args.nthreads if args.stage == "inchworm" else 1,
        ),
        nprocs=args.nprocs,
        nthreads=args.nthreads,
        butterfly_strategy=args.strategy,
    )
    # The driver's own chain up to the target stage; only it is traced.
    run = run_chain(
        cfg,
        flatten_reads(pairs),
        lambda row, inputs, stage_config: mpirun(
            row.fn, cfg.nprocs, inputs, stage_config,
            network=cfg.network, trace=row.key == args.stage,
        ),
        target=args.stage,
    ).runs[args.stage]

    verify_attribution(run)  # the breakdown below provably sums to the makespan
    report = critical_path(run, top_k=args.top)
    print(report.render())
    print()
    print(render_gantt(run))
    if args.chrome is not None:
        out = run.write_chrome_trace(args.chrome)
        print(f"\nwrote Chrome trace {out} (open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.faults import run_fault_sweep

    result = run_fault_sweep(
        nprocs=args.nprocs,
        seed=args.seed,
        n_chunks=args.chunks,
        crash_rates=args.crash_rates,
        straggler_slowdowns=args.slowdowns,
        io_rates=args.io_rates,
    )
    print(result.render())
    if any(not s.outputs_ok for s in result.scenarios):
        print("error: a recovered run diverged from the fault-free outputs", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import ReportOptions, write_report

    out = write_report(
        args.out,
        ReportOptions(include_slow=args.slow, validation_runs=args.validation_runs),
    )
    print(f"wrote {out}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    return experiments_main(args.ids + (["--slow"] if args.slow else []))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset to FASTA")
    p.add_argument("--recipe", default="sugarbeet-mini", choices=list_recipes())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("assemble", help="run the Trinity pipeline on a reads FASTA")
    p.add_argument("--reads", required=True)
    p.add_argument("--out", required=True, help="transcripts FASTA to write")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-mem-reads", type=int, default=1000, dest="max_mem_reads")
    p.add_argument("--nprocs", type=int, default=1, help="MPI ranks for hybrid Chrysalis")
    p.add_argument("--nthreads", type=int, default=4, help="OpenMP threads per rank")
    p.add_argument("--workdir", default=None, help="write stage files here")
    p.set_defaults(fn=_cmd_assemble)

    p = sub.add_parser("validate", help="all-vs-all SW comparison of two FASTAs")
    p.add_argument("--query", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("recovery", help="full-length/fused counts vs a reference")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--reference", required=True, help="FASTA with gene=... annotations")
    p.add_argument("--min-identity", type=float, default=0.95, dest="min_identity")
    p.add_argument("--min-coverage", type=float, default=0.95, dest="min_coverage")
    p.set_defaults(fn=_cmd_recovery)

    p = sub.add_parser("stats", help="assembly statistics of a FASTA")
    p.add_argument("fasta")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "profile",
        help="trace one MPI stage: critical path, Gantt, Chrome export",
    )
    from repro.parallel.driver import STAGE_TABLE

    p.add_argument("--stage", default="gff", choices=[row.key for row in STAGE_TABLE])
    p.add_argument("--nprocs", type=int, default=4)
    p.add_argument("--nthreads", type=int, default=4, help="OpenMP threads per rank")
    p.add_argument(
        "--strategy", default="round_robin", choices=["round_robin", "dynamic"],
        help="component deal of the inchworm and chrysalis stages",
    )
    p.add_argument("--recipe", default="sugarbeet-mini", choices=list_recipes())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=5, help="top-k longest spans to list")
    p.add_argument("--chrome", default=None, help="write Chrome trace-event JSON here")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "faults",
        help="sweep injected crash/straggler/flaky-IO rates vs makespan degradation",
    )
    p.add_argument("--nprocs", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=24, help="replay-stage chunk count")
    p.add_argument(
        "--crash-rates", type=float, nargs="*", default=[0.15, 0.3],
        dest="crash_rates", help="per-rank crash probabilities to sweep",
    )
    p.add_argument(
        "--slowdowns", type=float, nargs="*", default=[2.0, 4.0],
        help="straggler slowdown factors to sweep",
    )
    p.add_argument(
        "--io-rates", type=float, nargs="*", default=[0.1, 0.3],
        dest="io_rates", help="flaky-I/O failure probabilities to sweep",
    )
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser("experiments", help="regenerate paper figures")
    p.add_argument("ids", nargs="*")
    p.add_argument("--slow", action="store_true")
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser("report", help="write the full reproduction report (markdown)")
    p.add_argument("--out", default="report.md")
    p.add_argument("--slow", action="store_true", help="include the 10-run-style validation sweeps")
    p.add_argument("--validation-runs", type=int, default=3, dest="validation_runs")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "nprocs", 1) < 1:
        parser.error(f"--nprocs must be >= 1, got {args.nprocs}")
    try:
        return args.fn(args)
    except (OSError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        from repro.errors import ReproError

        if isinstance(exc, ReproError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
