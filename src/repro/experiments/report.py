"""Combined reproduction report: every experiment, one markdown document.

``python -m repro report --out report.md`` regenerates the material
EXPERIMENTS.md records — each experiment's rendered rows inside a fenced
block, grouped by section — so a reviewer can diff a fresh sweep against
the committed record.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro._version import __version__
from repro.experiments.registry import EXPERIMENTS, SLOW, run_experiment

#: Report layout: (section title, experiment ids).  Validation sweeps are
#: only included when slow mode is requested.
SECTIONS: List[Tuple[str, List[str]]] = [
    ("Algorithm illustrations", ["fig01", "fig03"]),
    ("Baseline characterisation", ["fig02"]),
    ("Scaling figures", ["fig07", "fig08", "fig09", "fig10", "fig11", "headline"]),
    ("Ablations", ["abl-sched", "abl-rtt-io", "abl-merge", "abl-chunksize", "abl-dsk"]),
    ("Model validation", ["calibration-check", "robustness"]),
    ("Future work", ["fw-dynamic", "fw-serial-regions", "fw-striped-io"]),
    ("Distributed stages beyond the paper",
     ["fig-jellyfish", "fig-inchworm", "fig-chrysalis", "fig-butterfly"]),
    ("Fault injection", ["faults"]),
    ("Output validation (slow)", ["fig04", "fig05_06"]),
]


@dataclass
class ReportOptions:
    """What to include and how to run it."""

    include_slow: bool = False
    seed: int = 0
    validation_runs: int = 3  # per version, when slow experiments run


def generate_report(options: Optional[ReportOptions] = None) -> str:
    """Run the experiments and return the markdown report."""
    opts = options or ReportOptions()
    parts: List[str] = [
        "# Reproduction report — Sachdeva et al., IPDPSW/HiCOMB 2014",
        "",
        f"- repro version: {__version__}",
        f"- python: {platform.python_version()} on {platform.system()}",
        f"- generated: {time.strftime('%Y-%m-%d %H:%M:%S')}",
        f"- seed: {opts.seed}; slow validation included: {opts.include_slow}",
        "",
    ]
    for title, ids in SECTIONS:
        runnable = [i for i in ids if opts.include_slow or i not in SLOW]
        if not runnable:
            continue
        parts.append(f"## {title}")
        parts.append("")
        for exp_id in runnable:
            kwargs: Dict[str, object] = {}
            if exp_id in SLOW:
                kwargs["n_runs"] = opts.validation_runs
            result = run_experiment(exp_id, **kwargs)
            parts.append(f"### {EXPERIMENTS[exp_id].title} (`{exp_id}`)")
            parts.append("")
            parts.append("```")
            parts.append(result.render())
            parts.append("```")
            parts.append("")
    return "\n".join(parts)


def write_report(path, options: Optional[ReportOptions] = None) -> Path:
    """Generate and write the report; returns the output path."""
    out = Path(path)
    out.write_text(generate_report(options))
    return out
