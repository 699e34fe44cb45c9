"""Expression-level models.

Transcriptomics has "a very large dynamic range" of expression (paper
SS:I); a lognormal abundance model reproduces that: a few transcripts soak
up most reads while a long tail is barely covered.  Coverage depth drives
both the Jellyfish k-mer histogram and which isoforms Inchworm/Butterfly
can fully reconstruct, so the validation experiments are sensitive to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.rng import spawn_rng


@dataclass(frozen=True)
class ExpressionModel:
    """Per-isoform relative abundances (sum to 1)."""

    weights: np.ndarray  # shape (n_isoforms,)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        object.__setattr__(self, "weights", w / total)

    @property
    def n(self) -> int:
        return int(self.weights.size)


def lognormal_expression(
    n_isoforms: int, seed: int = 0, sigma: float = 1.2
) -> ExpressionModel:
    """Lognormal abundances; ``sigma`` controls the dynamic range.

    sigma=1.2 gives a dynamic range of roughly 10^3 for a few hundred
    isoforms, consistent with routine RNA-seq.
    """
    if n_isoforms <= 0:
        raise ValueError(f"n_isoforms must be positive, got {n_isoforms}")
    rng = spawn_rng(seed, "expression")
    return ExpressionModel(rng.lognormal(mean=0.0, sigma=sigma, size=n_isoforms))


def length_weighted(model: ExpressionModel, lengths: Sequence[int]) -> ExpressionModel:
    """Convert molar abundances to read-sampling weights.

    Longer transcripts yield proportionally more fragments at equal molar
    abundance; read simulators sample fragments, so weights must be
    length-scaled.
    """
    lengths_arr = np.asarray(lengths, dtype=float)
    if lengths_arr.shape != model.weights.shape:
        raise ValueError("lengths must match the number of isoforms")
    if np.any(lengths_arr <= 0):
        raise ValueError("lengths must be positive")
    return ExpressionModel(model.weights * lengths_arr)
