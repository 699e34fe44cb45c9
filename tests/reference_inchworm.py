"""Per-step Inchworm: the oracle for ``repro.trinity.inchworm``.

This is the serial loop and the scalar 4-candidate probe the successor
table replaced, moved here unchanged: one seed at a time, and at every
extension step one ``searchsorted`` over the four (k-1)-overlap
candidates of the growing end, compared with a strict ``>`` on
``(count, -tie hash)`` so an exact tie falls to the lowest base.  It is
the readable specification of the greedy rule; ``inchworm_assemble``
and the pooled ``assemble_queue`` calls over any component deal must
reproduce its contigs —
names, bases and coverage ``repr`` — on any table.

Only the definitions both sides must share are imported: the seeding
order, the tie hash and ``Contig``.  The ``used`` slot a seed claims
(the table's own ``_seed_marks`` rule: its canonical k-mer, or its own
position when that was filtered away) and the code-to-string step are
spelled out here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import canonical_code, decode_kmer
from repro.seq.records import Contig
from repro.trinity.inchworm import GOLDEN, InchwormConfig, _seed_order
from repro.trinity.jellyfish import JellyfishCounts
from repro.util.rng import derive_seed


def tie_break_code(code: int, salt: int) -> int:
    """Salted 32-bit tie-break hash of one directed k-mer code: the
    unbounded-int statement of ``repro.trinity.inchworm.tie_break_codes``."""
    return (code * GOLDEN ^ salt) & 0xFFFFFFFF


def _seed_mark(filtered: KmerCounter, canonical: bool, position: int) -> int:
    """The ``used`` slot that seeding from ``position`` claims."""
    if not canonical:
        return position
    code = int(filtered.codes[position])
    canon = canonical_code(code, filtered.k)
    if canon == code:
        return position
    pos, found = filtered.find(np.asarray([canon], dtype=np.uint64))
    return int(pos[0]) if found[0] else position


def inchworm_assemble(
    counts: JellyfishCounts,
    config: Optional[InchwormConfig] = None,
) -> List[Contig]:
    """Assemble contigs from k-mer counts; deterministic given the seed."""
    cfg = config or InchwormConfig()
    k = counts.k
    if k < 2:
        raise PipelineError(f"inchworm needs k >= 2, got {k}")
    filtered = counts.index.filtered(cfg.min_kmer_count)
    if len(filtered) == 0:
        return []
    canonical = counts.canonical
    salt = derive_seed(cfg.seed, "inchworm-ties")
    perm = _seed_order(filtered, salt)
    order_codes = filtered.codes[perm].tolist()
    order_values = filtered.values[perm].tolist()
    order_marks = [_seed_mark(filtered, canonical, p) for p in perm.tolist()]

    used = np.zeros(len(filtered), dtype=bool)  # consumed canonical k-mers, by position
    contigs: List[Contig] = []
    min_len = cfg.resolved_min_length(k)

    for seed_code, seed_count, seed_mark in zip(order_codes, order_values, order_marks):
        if used[seed_mark]:
            continue
        seq_codes = [seed_code]
        # Coverage is the mean of the *filtered* counts greedy extension
        # actually consumed — the seed's own table entry plus each chosen
        # candidate's looked-up count — never a second canonicalisation
        # pass over another table.
        covs = [seed_count]
        used[seed_mark] = True
        # Extend right.
        cur = seed_code
        while len(seq_codes) < cfg.max_contig_length:
            nxt = _best_extension(filtered, canonical, used, cur, salt, right=True)
            if nxt is None:
                break
            cur, cnt, pos = nxt
            seq_codes.append(cur)
            covs.append(cnt)
            used[pos] = True
        # Extend left.
        cur = seed_code
        left_codes: List[int] = []
        while len(seq_codes) + len(left_codes) < cfg.max_contig_length:
            nxt = _best_extension(filtered, canonical, used, cur, salt, right=False)
            if nxt is None:
                break
            cur, cnt, pos = nxt
            left_codes.append(cur)
            covs.append(cnt)
            used[pos] = True
        all_codes = left_codes[::-1] + seq_codes
        seq = _codes_to_seq(all_codes, k)
        if len(seq) < min_len:
            continue
        coverage = float(sum(covs)) / len(covs)
        contigs.append(Contig(name=f"iw_contig_{len(contigs)}", seq=seq, coverage=coverage))
    return contigs


def _best_extension(
    filtered: KmerCounter,
    canonical: bool,
    used: np.ndarray,
    cur: int,
    salt: int,
    right: bool,
) -> Optional[Tuple[int, int, int]]:
    """Highest-count unused (k-1)-overlap neighbour of ``cur``.

    Returns ``(code, count, position)`` — the directed candidate, its
    filtered count and the ``used``-mask position of its canonical k-mer
    — or None at a dead end.  The four candidates resolve against the
    filtered sorted-array index in a single ``searchsorted``.  Ties
    between equal-count candidates are broken by :func:`tie_break_code`.
    """
    k = filtered.k
    if right:
        mask = (1 << (2 * k)) - 1
        cands = [((cur << 2) | b) & mask for b in range(4)]
    else:
        cands = [(b << (2 * (k - 1))) | (cur >> 2) for b in range(4)]
    canons = [canonical_code(c, k) for c in cands] if canonical else cands
    pos, found = filtered.find(np.asarray(canons, dtype=np.uint64))
    best: Optional[Tuple[int, int, int, int]] = None  # (count, -tiebreak, candidate, position)
    for cand, p, hit in zip(cands, pos.tolist(), found.tolist()):
        cnt = int(filtered.values[p]) if hit and not used[p] else 0
        if cnt == 0:
            continue
        tie = tie_break_code(cand, salt)
        if best is None or (cnt, -tie) > (best[0], best[1]):
            best = (cnt, -tie, cand, p)
    return (best[2], best[0], best[3]) if best else None


def _codes_to_seq(codes: List[int], k: int) -> str:
    """The contig string of consecutive overlapping codes: the first
    k-mer, then each further code's last base."""
    return decode_kmer(codes[0], k) + "".join("ACGT"[c & 3] for c in codes[1:])
