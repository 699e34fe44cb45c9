"""CLI: run paper experiments by id.

Usage::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments fig07 fig09     # run and render
    python -m repro.experiments all             # everything fast (no fig04/05)
    python -m repro.experiments all --slow      # include validation sweeps
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import EXPERIMENTS, SLOW, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures (see DESIGN.md for the index).",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids, or 'all'")
    parser.add_argument("--slow", action="store_true", help="include validation sweeps in 'all'")
    args = parser.parse_args(argv)

    if not args.ids:
        for exp in EXPERIMENTS.values():
            print(f"{exp.id:10s} {exp.title}")
        return 0

    ids = list(args.ids)
    if ids == ["all"]:
        ids = [e for e in EXPERIMENTS if args.slow or e not in SLOW]

    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2

    for eid in ids:
        result = run_experiment(eid)
        print(result.render())
        print("\n" + "=" * 72 + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
