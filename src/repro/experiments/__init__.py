"""Experiment runners: one module per paper figure plus the ablations.

Each runner returns a result object with a ``render()`` method printing
the same rows/series the paper's figure reports, next to the paper's
values where the paper states them.  The benchmark harness under
``benchmarks/`` calls these runners; EXPERIMENTS.md records one full
sweep, paper against modelled (the paper-scale replays) and measured
(the miniature runs).
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment"]
