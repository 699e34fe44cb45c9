"""abl-dsk: Jellyfish vs DSK k-mer counting (paper SS:II.A).

"Another application for k-mer counting that uses less memory than
Jellyfish is DSK; however this is not part of the Trinity pipeline yet."
This experiment runs both counters on a miniature read set — real
execution, measured wall time — and compares the *counting-pass* peak
working sets in real ``nbytes`` (both counters end up holding the same
final table, so the final table alone would hide the difference):
Jellyfish's pass keeps a whole batch of raw k-mer codes resident next to
the accumulating table, while DSK's pass holds one spilled partition at
a time.  That is the trade-off the paper alludes to: extra I/O and time
for a bounded counting working set, with bit-identical counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import base_blocks
from repro.seq.records import SeqRecord
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity.dsk import DskConfig, dsk_count_with_stats
from repro.trinity.jellyfish import JellyfishConfig, jellyfish_count
from repro.util.fmt import format_table


def jellyfish_peak_bytes(
    reads: Sequence[SeqRecord], counts: KmerCounter, batch_bases: int
) -> int:
    """Jellyfish's counting-pass peak, in real bytes.

    The largest resident set of :func:`jellyfish_count`: one batch's raw
    code array (8 B per k-mer position, bounded by ``batch_bases``)
    alongside the builder's accumulated partials (~the final table).
    The batches are the counting loop's own (:func:`base_blocks`).
    """
    batches = base_blocks((rec.seq for rec in reads), batch_bases)
    peak_batch = max((sum(map(len, batch)) for batch in batches), default=0)
    # ~1 windowed code per joined base; + the merged table's two arrays.
    return peak_batch * 8 + counts.memory_bytes()


@dataclass
class DskAblationResult:
    dataset: str
    n_reads: int
    jellyfish_s: float
    jellyfish_mem_bytes: int
    dsk_s: float
    dsk_peak_mem_bytes: int
    dsk_spilled_bytes: int
    n_partitions: int
    identical_counts: bool

    @property
    def memory_ratio(self) -> float:
        """Jellyfish counting peak / DSK counting peak (>1: DSK uses less).

        Both sides are real-``nbytes`` working-set peaks of the counting
        pass (:func:`jellyfish_peak_bytes` vs
        :meth:`~repro.trinity.dsk.DskStats.peak_memory_bytes`), not the
        retired 100 B/key dict extrapolation.
        """
        return self.jellyfish_mem_bytes / max(1, self.dsk_peak_mem_bytes)

    def render(self) -> str:
        table = format_table(
            ["counter", "wall time (s)", "peak memory (MB)", "disk spill (MB)"],
            [
                ["jellyfish", f"{self.jellyfish_s:.2f}", f"{self.jellyfish_mem_bytes / 1e6:.1f}", "0"],
                [
                    f"dsk (P={self.n_partitions})",
                    f"{self.dsk_s:.2f}",
                    f"{self.dsk_peak_mem_bytes / 1e6:.1f}",
                    f"{self.dsk_spilled_bytes / 1e6:.1f}",
                ],
            ],
        )
        return (
            f"Ablation — Jellyfish vs DSK counting on {self.dataset} "
            f"({self.n_reads} reads)\n{table}\n"
            f"counts identical: {self.identical_counts}; "
            f"DSK memory reduction: {self.memory_ratio:.1f}x"
        )


def run_dsk_ablation(
    dataset: str = "whitefly-mini",
    k: int = 25,
    n_partitions: int = 16,
    seed: int = 0,
) -> DskAblationResult:
    _txome, pairs = get_recipe(dataset).materialize(seed=seed)
    reads = flatten_reads(pairs)

    jcfg = JellyfishConfig(k=k)
    t0 = time.perf_counter()
    jf = jellyfish_count(reads, k, batch_bases=jcfg.batch_bases)
    jellyfish_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    dsk, stats = dsk_count_with_stats(reads, k, DskConfig(n_partitions=n_partitions))
    dsk_s = time.perf_counter() - t0

    return DskAblationResult(
        dataset=dataset,
        n_reads=len(reads),
        jellyfish_s=jellyfish_s,
        jellyfish_mem_bytes=jellyfish_peak_bytes(reads, jf, jcfg.batch_bases),
        dsk_s=dsk_s,
        dsk_peak_mem_bytes=stats.peak_memory_bytes(),
        dsk_spilled_bytes=stats.bytes_spilled,
        n_partitions=n_partitions,
        identical_counts=dsk == jf,
    )
