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
(``chain_table``'s seed-mark rule: its canonical k-mer, or its own
position when that was filtered away) and the code-to-string step are
spelled out here.

The second oracle is the queue kernel the chain table replaced:
:func:`preference_rows`, every row of a queue fully sorted by the greedy
comparator, and :func:`walk`, its first unused entry one k-mer at a
time.  :func:`assemble_queue` runs them over a queue and returns keyed
contigs as ``repro.trinity.inchworm.assemble_queue`` does, so the chain
table's rows and its chain-jumping walk are checked against both.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import canonical_code, decode_kmer, revcomp_codes
from repro.seq.records import Contig
from repro.trinity.inchworm import (
    GOLDEN,
    InchwormConfig,
    _salt,
    _seed_keys,
    _seed_order,
    extension_candidates,
    tie_break_codes,
)
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
    filtered = counts.index
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


def preference_rows(
    filtered: KmerCounter,
    canonical: bool,
    salt: int,
    landing: np.ndarray,
    queue: np.ndarray,
) -> np.ndarray:
    """Successor rows of the positions in ``queue``, every one fully sorted.

    ``rows[i, o, d]`` are the up to four extensions of ``queue[i]``'s
    k-mer read in orientation ``o`` (0 as stored, 1 reverse-complemented;
    0 only unless ``canonical``) towards ``d`` (0 right, 1 left), best
    first by the greedy comparator — count descending, then the salted
    hash of the *directed* candidate ascending, then base ascending —
    and padded with -1.  A candidate that is absent, or stored with a
    count <= 0, is no candidate.  An entry is the walk state it leads
    to, ``j << o_bits | orientation``: ``j`` the landing position's index
    in ``queue``, orientation 1 when the directed candidate is the
    reverse complement of the stored code.  The reverse orientation lands
    where the stored one's other direction does, bases mirrored.
    """
    k, codes, values = filtered.k, filtered.codes, filtered.values
    o_bits = 1 if canonical else 0
    row_of = np.full(len(filtered), -1, dtype=np.int32)
    row_of[queue] = np.arange(queue.size, dtype=np.int32)
    rows = np.empty((queue.size, 1 + o_bits, 2, 4), dtype=np.int32)
    stored, lands = codes[queue], landing[queue]
    for o in range(1 + o_bits):
        directed = revcomp_codes(stored, k) if o else stored
        for d, right in enumerate((True, False)):
            cands = extension_candidates(directed, k, right)
            half = lands[:, :4] if right != bool(o) else lands[:, 4:]
            land = half[:, ::-1] if o else half
            at = np.maximum(land, 0)
            count = np.maximum(np.where(land >= 0, values[at], 0), 0)
            # Stable two-key sort along each row: equal (count, hash) keep base order.
            order = np.lexsort((tie_break_codes(cands, salt), -count))
            state = (row_of[at] << o_bits) | (cands != codes[at])
            state[count == 0] = -1
            rows[:, o, d] = np.take_along_axis(state, order, axis=1)
    return rows


def walk(
    rows: Sequence[int], used: bytearray, o_bits: int, seed: int, max_len: int
) -> List[int]:
    """Greedily extend one contig from walk state ``seed``, one k-mer at a
    time: ``rows`` is :func:`preference_rows` flattened and the caller has
    claimed the seed's ``used`` slot.  Extends right until a row has no
    unused entry, then left from the seed, claiming each landing, for at
    most ``max_len`` k-mers in all.  Returns the visited states, left end
    first.
    """
    arms: Tuple[List[int], List[int]] = ([seed], [])
    n = 0
    for d, arm in enumerate(arms):
        cur = seed
        while n + 1 < max_len:
            base = (cur << 3) | (d << 2)
            for nxt in rows[base : base + 4]:
                if nxt < 0 or not used[nxt >> o_bits]:
                    break
            else:
                nxt = -1
            if nxt < 0:
                break
            used[nxt >> o_bits] = 1
            arm.append(nxt)
            cur = nxt
            n += 1
    return arms[1][::-1] + arms[0]


def assemble_queue(
    filtered: KmerCounter,
    canonical: bool,
    config: InchwormConfig,
    landing: np.ndarray,
    queue: np.ndarray,
) -> List[Tuple[Tuple[int, int, int], str, float]]:
    """The keyed contigs of ``queue`` by :func:`preference_rows` and the
    per-step :func:`walk`, bases and coverage read state by state."""
    k, o_bits = filtered.k, 1 if canonical else 0
    salt = _salt(config)
    rows = preference_rows(filtered, canonical, salt, landing, queue).reshape(-1).tolist()
    used = bytearray(queue.size)
    row_of = {p: i for i, p in enumerate(queue.tolist())}
    keyed = []
    for i, p in enumerate(queue.tolist()):
        mark = row_of.get(_seed_mark(filtered, canonical, p), i)
        if used[mark]:
            continue
        used[mark] = 1
        path = walk(rows, used, o_bits, i << o_bits, config.max_contig_length)
        at = [int(queue[s >> o_bits]) for s in path]
        stored = filtered.codes[at]
        codes = np.where([s & o_bits for s in path], revcomp_codes(stored, k), stored).tolist()
        seq = _codes_to_seq(codes, k)
        if len(seq) >= config.resolved_min_length(k):
            key = tuple(int(x[0]) for x in _seed_keys(filtered, salt, queue[i : i + 1]))
            keyed.append((key, seq, float(sum(int(filtered.values[a]) for a in at)) / len(at)))
    return keyed
