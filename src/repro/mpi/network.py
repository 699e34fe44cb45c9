"""Alpha-beta communication cost model for the simulated interconnect.

Collective costs use standard algorithm models (Thakur et al., 2005):

* barrier / small sync:   ``ceil(log2 p) * alpha``
* bcast (binomial tree):  ``ceil(log2 p) * (alpha + n*beta)``
* allgather(v) (ring):    ``(p-1)*alpha + ((p-1)/p)*n_total*beta``
* alltoall:               ``(p-1)*alpha + n_total*beta``

where ``n_total`` is the total payload pooled across ranks.  The defaults
approximate the FDR10 InfiniBand of the "Blue Wonder" iDataPlex the paper
used (~1.5 us latency, ~5 GB/s effective per-node bandwidth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Latency-bandwidth interconnect model."""

    alpha: float = 1.5e-6  # per-message latency, seconds
    beta: float = 1.0 / 5e9  # seconds per byte (inverse bandwidth)

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")

    def _log2p(self, p: int) -> int:
        if p < 1:
            raise ValueError(f"communicator size must be >= 1, got {p}")
        return max(1, math.ceil(math.log2(p))) if p > 1 else 0

    def barrier(self, p: int) -> float:
        return self._log2p(p) * self.alpha

    def bcast(self, p: int, nbytes: int) -> float:
        if p <= 1:
            return 0.0
        return self._log2p(p) * (self.alpha + nbytes * self.beta)

    def allgatherv(self, p: int, total_bytes: int) -> float:
        """Ring allgather over the pooled payload.

        This is the collective the paper leans on: after each
        GraphFromFasta loop, every rank pools the per-rank results
        (packed strings after loop 1, int arrays after loop 2).
        """
        if p <= 1:
            return 0.0
        return (p - 1) * self.alpha + ((p - 1) / p) * total_bytes * self.beta

    def alltoall(self, p: int, total_bytes: int) -> float:
        if p <= 1:
            return 0.0
        return (p - 1) * self.alpha + total_bytes * self.beta


#: Blue Wonder's FDR10 InfiniBand (paper SS:V test hardware).
IDATAPLEX_FDR10 = NetworkModel(alpha=1.5e-6, beta=1.0 / 5e9)

#: Zero-cost network (isolates compute scaling in ablations).
ZERO_COST = NetworkModel(alpha=0.0, beta=0.0)
