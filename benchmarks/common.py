"""Shared CLI plumbing for the ``repro bench`` wall-clock runners.

Every runner (gff, rtt, inchworm, butterfly) exposes the same contract:
``run_cli(argv) -> int`` parses a parser built on :func:`bench_parser`,
runs its measurement, and appends one labeled entry to an append-only
``BENCH_*.json`` history via :func:`benchmarks.conftest.append_bench_entry`.
The shared parent keeps the flag surface identical across benches:

* ``--label`` (required) — entry label recorded in the history;
* ``--seed`` — dataset materialization seed (0 reproduces the
  checked-in histories' workload byte-for-byte);
* ``--repeat`` — runs per timed point; the best wall-clock is recorded
  to shave host noise off the history;
* ``--history`` (alias ``--out``, kept for older invocations) — the
  JSON history file to append to.

Runner-specific flags (``--nprocs``, ``--threads``, …)
stay on the individual runners.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def bench_parser(
    description: str,
    default_history: Path,
    default_repeat: int = 3,
) -> argparse.ArgumentParser:
    """Parser carrying the flags every bench runner shares.

    ``--history`` and ``--out`` are one flag (``args.history``): the
    histories predate the shared parser and were appended with ``--out``,
    so both spellings must keep working.
    """
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--label", required=True, help="entry label, e.g. a change name")
    ap.add_argument("--seed", type=int, default=0, help="dataset materialization seed")
    ap.add_argument(
        "--repeat", type=int, default=default_repeat,
        help="runs per point; best wall is recorded",
    )
    ap.add_argument(
        "--history", "--out", dest="history", type=Path, default=default_history,
        help="append-only BENCH_*.json history to extend",
    )
    return ap
