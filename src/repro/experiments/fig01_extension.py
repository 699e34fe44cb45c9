"""Figure 1: Inchworm's seed extension by (k-1)-overlap, traced.

The paper's Figure 1 illustrates one greedy extension step: from the
current k-mer, the four possible (k-1)-overlap successors are scored by
abundance and the highest-count one extends the contig.  This experiment
runs the *real* extension kernel over a toy k-mer table and renders every
step — seed, candidate counts, choice — as the figure shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.seq.kmers import canonical_code, decode_kmer, encode_kmer, revcomp_codes
from repro.seq.records import SeqRecord
from repro.trinity.inchworm import chain_table, neighbours
from repro.trinity.jellyfish import jellyfish_count
from repro.util.fmt import format_table
from repro.util.rng import derive_seed

K = 7
#: Toy transcript with a decoy branch: an error read creates a low-count
#: alternative at one position, which greedy extension must reject.
TRUE_SEQ = "ATCGGATTACAGTCCGGTTAACGAG"
ERROR_SEQ = "ATCGGATTACAGACC"  # diverges after ...TACAG


@dataclass
class ExtensionStep:
    """One greedy extension decision."""

    position: int
    current: str
    candidates: List[Tuple[str, int]]  # (k-mer, count), zero-count omitted
    chosen: Optional[str]


@dataclass
class Fig01Result:
    seed_kmer: str
    steps: List[ExtensionStep]
    contig: str
    true_seq: str

    @property
    def reconstructed_truth(self) -> bool:
        return self.contig in self.true_seq or self.true_seq in self.contig

    def render(self) -> str:
        rows = []
        for step in self.steps:
            cands = "  ".join(f"{kmer}:{count}" for kmer, count in step.candidates)
            rows.append(
                [step.position, step.current, cands, step.chosen or "(stop)"]
            )
        table = format_table(["step", "current k-mer", "candidates (count)", "chosen"], rows)
        return (
            f"Figure 1 — Inchworm seed extension by (k-1)-overlap (k={K})\n"
            f"seed: {self.seed_kmer}\n{table}\n"
            f"contig: {self.contig}\n"
            f"follows the abundant (true) path: {self.reconstructed_truth}"
        )


def run(seed: int = 0) -> Fig01Result:
    reads = [SeqRecord(f"t{i}", TRUE_SEQ) for i in range(5)] + [
        SeqRecord("err", ERROR_SEQ)
    ]
    filtered = jellyfish_count(reads, K)  # no abundance floor in the illustration
    # The shipped kernel's successor table over the whole toy dictionary:
    # each k-mer's candidates, best first, as the walk states they lead to.
    table = chain_table(
        filtered, derive_seed(seed, "inchworm-ties"),
        neighbours(filtered), np.arange(len(filtered)),
    )

    def kmer_and_count(state: int) -> Tuple[str, int]:
        """A walk state ``position << 1 | reversed`` as (directed k-mer, count)."""
        code = filtered.codes[state >> 1 : (state >> 1) + 1]
        directed = int(revcomp_codes(code, K)[0] if state & 1 else code[0])
        return decode_kmer(directed, K), int(filtered.values[state >> 1])

    seed_kmer = TRUE_SEQ[:K]
    cur = encode_kmer(seed_kmer)
    canon = canonical_code(cur, K)
    state = int(np.searchsorted(filtered.codes, np.uint64(canon))) << 1 | (cur != canon)
    used = {state >> 1}
    contig = seed_kmer
    steps: List[ExtensionStep] = []
    for pos in range(len(TRUE_SEQ)):
        current = kmer_and_count(state)[0]
        row = table.row(state >> 1, state & 1, 0)
        # Shown in base order, as the figure draws them; taken in row order.
        candidates = sorted(kmer_and_count(nxt) for nxt in row)
        state = next((nxt for nxt in row if nxt >> 1 not in used), -1)
        if state < 0:
            steps.append(ExtensionStep(pos, current, candidates, None))
            break
        chosen = kmer_and_count(state)[0]
        steps.append(ExtensionStep(pos, current, candidates, chosen))
        contig += chosen[-1]
        used.add(state >> 1)
    return Fig01Result(seed_kmer=seed_kmer, steps=steps, contig=contig, true_seq=TRUE_SEQ)
