"""The Trinity workflow driver (``Trinity.pl`` equivalent).

Runs the four modules in order — Jellyfish, Inchworm, Chrysalis (Bowtie,
GraphFromFasta, ReadsToTranscripts, FastaToDebruijn, QuantifyGraph),
Butterfly — exchanging data through files when a working directory is
given, exactly as the original pipeline does ("the software modules
exchange data through files", paper SS:II.A).

The chain is the hybrid driver's: :func:`repro.parallel.driver.run_chain`
walks the stage table, running each row's *serial* body — the original
OpenMP-only code path, from the :mod:`repro.trinity` kernels alone —
where :class:`repro.parallel.driver.ParallelTrinityDriver` launches its
MPI body.  Only the wiring is shared, so the serial run stays the hybrid
one's independent oracle.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.obs.result import StageResult
from repro.obs.span import Span, stage_seconds
from repro.parallel.driver import (
    ParallelTrinityConfig,
    chain_result,
    run_chain,
    serial_launcher,
)
from repro.seq.records import SeqRecord
from repro.trinity.config import TrinityConfig, TrinityResult

__all__ = ["TrinityConfig", "TrinityPipeline", "TrinityResult"]

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)


class TrinityPipeline:
    """Run the full Trinity workflow on an in-memory read set."""

    def __init__(self, config: Optional[TrinityConfig] = None) -> None:
        self.config = config or TrinityConfig()

    def run(
        self,
        reads: Sequence[SeqRecord],
        workdir: Optional[PathLike] = None,
    ) -> StageResult:
        """Assemble ``reads``; write stage files under ``workdir`` if given.

        Returns a :class:`~repro.obs.result.StageResult` whose ``outputs``
        is the :class:`TrinityResult` and whose ``spans`` time each serial
        kernel on the host wall clock, back to back
        (:func:`~repro.obs.span.host_stage`).
        """
        cfg = self.config
        spans: List[Span] = []
        logger.info("trinity: %d reads, k=%d, seed=%d", len(reads), cfg.k, cfg.seed)
        chain = run_chain(
            ParallelTrinityConfig(trinity=cfg), reads, serial_launcher(spans),
            workdir=Path(workdir) if workdir is not None else None,
        )
        for span in spans:
            logger.info("%s: %.3f s", span.label, span.duration)
        result: TrinityResult = chain_result(chain)
        return StageResult(
            stage="trinity",
            outputs=result,
            makespan=spans[-1].stop,
            spans=spans,
            metrics={
                **{f"stage.{label}_s": s for label, s in stage_seconds(spans).items()},
                "n_transcripts": float(len(result.transcripts)),
                "n_contigs": float(len(result.contigs)),
                "n_components": float(result.n_components),
            },
        )
