"""Paired-end short-read simulator with a substitution error model.

Produces the FASTA read files the pipeline consumes.  Reads are sampled
fragment-wise from isoforms according to an expression model; each read
may be reverse-complemented (strand-symmetric sequencing) and bases are
substituted at ``error_rate`` (Illumina-like ~0.1-1 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.seq.alphabet import BASES, reverse_complement
from repro.seq.records import ReadPair, SeqRecord
from repro.simdata.expression import ExpressionModel, length_weighted
from repro.util.rng import spawn_rng


@dataclass
class ReadSimulator:
    """Configuration for read simulation.

    ``paired_fraction`` < 1 mixes in single-end reads, mirroring the
    sugarbeet dataset's mix of single-end/left and right reads.
    """

    read_len: int = 75
    fragment_mean: float = 250.0
    fragment_sd: float = 30.0
    error_rate: float = 0.005
    paired_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.read_len <= 0:
            raise ValueError(f"read_len must be positive, got {self.read_len}")
        if not (0.0 <= self.error_rate < 1.0):
            raise ValueError(f"error_rate must be in [0,1), got {self.error_rate}")
        if not (0.0 <= self.paired_fraction <= 1.0):
            raise ValueError("paired_fraction must be in [0,1]")

    def simulate(
        self,
        isoform_seqs: Sequence[str],
        expression: ExpressionModel,
        n_reads: int,
        seed: int = 0,
    ) -> List[ReadPair]:
        """Simulate ``n_reads`` total reads (a pair counts as two reads)."""
        if len(isoform_seqs) != expression.n:
            raise ValueError("isoform count does not match expression model")
        rng = spawn_rng(seed, "reads")
        weights = length_weighted(
            expression, [max(len(s), 1) for s in isoform_seqs]
        ).weights
        pairs: List[ReadPair] = []
        reads_emitted = 0
        ridx = 0
        while reads_emitted < n_reads:
            iso = int(rng.choice(len(isoform_seqs), p=weights))
            seq = isoform_seqs[iso]
            paired = rng.random() < self.paired_fraction and reads_emitted + 2 <= n_reads
            pair = self._sample_fragment(rng, seq, iso, ridx, paired)
            if pair is None:
                continue
            pairs.append(pair)
            reads_emitted += 2 if pair.is_paired else 1
            ridx += 1
        return pairs

    def _sample_fragment(
        self,
        rng: np.random.Generator,
        seq: str,
        iso: int,
        ridx: int,
        paired: bool,
    ) -> Optional[ReadPair]:
        frag_len = int(round(rng.normal(self.fragment_mean, self.fragment_sd)))
        frag_len = max(self.read_len, min(frag_len, len(seq)))
        if len(seq) < self.read_len:
            return None
        start = int(rng.integers(0, len(seq) - frag_len + 1))
        frag = seq[start : start + frag_len]
        left_seq = self._mutate(rng, frag[: self.read_len])
        flip = rng.random() < 0.5
        left = SeqRecord(
            f"read{ridx}/1",
            reverse_complement(left_seq) if flip else left_seq,
            f"iso={iso} pos={start}",
        )
        if not paired:
            return ReadPair(left)
        right_raw = reverse_complement(frag[-self.read_len :])
        right_seq = self._mutate(rng, right_raw)
        right = SeqRecord(
            f"read{ridx}/2",
            reverse_complement(right_seq) if flip else right_seq,
            f"iso={iso} pos={start + frag_len - self.read_len}",
        )
        return ReadPair(left, right)

    def _mutate(self, rng: np.random.Generator, seq: str) -> str:
        if self.error_rate == 0.0:
            return seq
        arr = np.frombuffer(seq.encode(), dtype=np.uint8).copy()
        hits = np.nonzero(rng.random(arr.size) < self.error_rate)[0]
        if hits.size == 0:
            return seq
        for i in hits:
            current = chr(arr[i])
            choices = [b for b in BASES if b != current]
            arr[i] = ord(choices[int(rng.integers(0, 3))])
        return arr.tobytes().decode()


def flatten_reads(pairs: Sequence[ReadPair]) -> List[SeqRecord]:
    """All read records (left then right) in pair order."""
    out: List[SeqRecord] = []
    for p in pairs:
        out.append(p.left)
        if p.right is not None:
            out.append(p.right)
    return out
