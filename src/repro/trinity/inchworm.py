"""Inchworm: greedy contig assembly from a k-mer dictionary.

Implements the algorithm as the paper summarises it (SS:II.A):

1. construct a k-mer dictionary from all reads, removing likely
   error-containing k-mers, sorted by decreasing abundance;
2. seed a contig with the most frequent unused k-mer;
3. extend in each direction with the highest-count k-mer sharing a
   (k-1)-overlap (Fig 1);
4. report the linear contig; repeat until the dictionary is exhausted.

Trinity's output is "slightly indeterministic" because thread scheduling
perturbs tie-breaking; we model that with a seed-dependent tie-break among
equal-abundance k-mers so repeated runs with different seeds reproduce the
output *distribution* the paper's validation (SS:IV) studies.

Counts and tie hashes never change during a run — only which k-mers are
``used`` does — so the order in which a growing end prefers its four
candidates is a property of the table, not of the step, and almost every
row has one candidate or none.  The assembler is therefore probe ->
links and forks -> chain walk:

:func:`neighbours`
    The probe, and the only table search: for every stored k-mer the
    landing position of its four right and four left extensions.
:func:`chain_table`
    Per queue, built vectorised by whoever walks it: one-candidate rows
    as links, fork rows ordered, branch-free chains (HipMer's "UU"
    unitigs, ELBA's linear chains) laid out as runs of slots.
:func:`walk`
    One contig: from a seed, a chain at a time, then an exit row's first
    unused candidate.

Both assemblers are that walk over a seed queue, :func:`assemble_queue`:
the table of the queued positions, then a walk from each in queue order.
:func:`inchworm_assemble`, which the serial pipeline runs, queues every
position in the global seed order.  :mod:`repro.parallel.mpi_inchworm`
queues, per simulated OpenMP thread, the positions of the components
its rank dealt it (:func:`seed_queues`): a greedy walk never leaves the
connected component of its seed in the k-mer overlap graph, so every
landing is owned and the keyed union over any deal is the serial
output.  The kernel reads no clock: the stage's ``comm.map`` window
times each thread's call.  The oracles, sorted rows and a per-step
walk, are in ``tests/reference_inchworm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PipelineError
from repro.seq.kmer_index import KmerCounter, decode_kmers, sorted_rows
from repro.seq.kmers import revcomp_codes
from repro.seq.records import Contig
from repro.trinity.kmer_components import overlap_edges
from repro.util.rng import derive_seed

#: Fibonacci-hash multiplier shared by every Inchworm tie-break.
GOLDEN = 0x9E3779B97F4A7C15

#: The probe's landings are ``int32``, so a table of this many k-mers or
#: more cannot be walked: the probe refuses.
_MAX_POSITIONS = 1 << 30


@dataclass(frozen=True)
class InchwormConfig:
    """Inchworm parameters (defaults mirror Trinity's spirit, scaled).

    Error k-mers are not Inchworm's to remove: it walks the table it is
    given, which in the pipeline is Jellyfish's solid one
    (``TrinityConfig.min_kmer_count``).
    """

    min_contig_length: int = 0  # 0 -> use 2*k (GraphFromFasta window size)
    max_contig_length: int = 200_000  # cycle guard, in k-mers
    seed: int = 0  # tie-break stream

    def __post_init__(self) -> None:
        if self.min_contig_length < 0:
            raise PipelineError(
                f"min_contig_length must be >= 0, got {self.min_contig_length}"
            )
        if self.max_contig_length < 1:
            raise PipelineError(
                f"max_contig_length must be >= 1, got {self.max_contig_length}"
            )

    def resolved_min_length(self, k: int) -> int:
        return self.min_contig_length if self.min_contig_length > 0 else 2 * k


# --------------------------------------------------------------------------
# Tie-breaking
# --------------------------------------------------------------------------


def tie_break_codes(codes: np.ndarray, salt: int) -> np.ndarray:
    """Salted 32-bit tie-break hash of each directed k-mer code.

    Equal-count candidates (and equal-count seeds) are ordered by this
    hash — the modelled source of Trinity's run-to-run variation; a fixed
    salt keeps each individual run fully reproducible.

    uint64 wraparound in the multiply leaves the low 32 bits identical to
    the unbounded-int expression ``(code * GOLDEN ^ salt) & 0xFFFFFFFF``
    (the scalar oracle, ``tests.reference_inchworm.tie_break_code``), and
    masking the salt to 32 bits before the XOR commutes with the final
    mask — so the two can never disagree on a tie (property-tested).
    """
    codes = np.asarray(codes, dtype=np.uint64)
    hashed = (codes * np.uint64(GOLDEN)) ^ np.uint64(salt & 0xFFFFFFFF)
    return (hashed & np.uint64(0xFFFFFFFF)).astype(np.int64)


def _seed_keys(
    filtered: KmerCounter, salt: int, at: Union[np.ndarray, slice] = slice(None)
) -> Tuple[np.ndarray, ...]:
    """The seeding comparator of positions ``at``, most significant key
    first: ``(-count, tie hash, code)``.

    Decreasing abundance; ties broken by the seed-salted hash then code,
    so different seeds explore equal-abundance seeds in different orders.
    """
    codes = filtered.codes[at]
    return -filtered.values[at], tie_break_codes(codes, salt), codes


def _salt(config: InchwormConfig) -> int:
    """The tie-break salt of a run: the seed order and the rows hash with it."""
    return derive_seed(config.seed, "inchworm-ties")


def _seed_order(filtered: KmerCounter, salt: int) -> np.ndarray:
    """Seeding priority, as a permutation of ``filtered``'s positions
    (which ascend with code, the comparator's last key)."""
    count, tie, _code = _seed_keys(filtered, salt)
    return sorted_rows((np.arange(len(filtered)), tie, count))[0]


def seed_queues(
    filtered: KmerCounter,
    config: InchwormConfig,
    component_ids: np.ndarray,
    thread_components: Sequence[Sequence[int]],
) -> List[np.ndarray]:
    """Per simulated thread, the positions of its components in seeding order.

    ``component_ids[p]`` is position ``p``'s dense component id
    (:func:`repro.trinity.kmer_components.component_ids`) and
    ``thread_components[t]`` lists the ids thread ``t`` owns.  One pass
    over the owned positions: each is tagged with its thread and all are
    sorted by (thread, :func:`_seed_keys`), so a thread's queue is the
    global seed order restricted to its positions, with no global
    permutation built.  The owned positions ascend, and with them their
    codes, so ties on (thread, count, hash) keep code order by themselves.
    """
    if not thread_components:
        raise PipelineError("inchworm needs at least one thread's component list")
    thread_of = np.full(len(filtered), -1, dtype=np.intp)
    for t, components in enumerate(thread_components):
        thread_of[np.asarray(components, dtype=np.intp)] = t
    thread = thread_of[component_ids]
    at = np.flatnonzero(thread >= 0)
    thread = thread[at]
    count, tie, _code = _seed_keys(filtered, _salt(config), at)
    at, _tie, _count, thread = sorted_rows((at, tie, count, thread))
    return np.split(at, np.searchsorted(thread, np.arange(1, len(thread_components))))


# --------------------------------------------------------------------------
# Probe: every stored k-mer's eight extensions, resolved once
# --------------------------------------------------------------------------


def extension_candidates(cur: np.ndarray, k: int, right: bool) -> np.ndarray:
    """The four directed (k-1)-overlap neighbours of each code in ``cur``,
    shaped ``(n, 4)``: column ``b`` appends (``right``) or prepends base ``b``."""
    cur = np.asarray(cur, dtype=np.uint64)
    b = np.arange(4, dtype=np.uint64)[None, :]
    if right:
        mask = np.uint64(((1 << (2 * k)) - 1) & 0xFFFFFFFFFFFFFFFF)
        return ((cur[:, None] << np.uint64(2)) | b) & mask
    return (b << np.uint64(2 * (k - 1))) | (cur[:, None] >> np.uint64(2))


def neighbours(filtered: KmerCounter, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Where each stored k-mer's single-base extensions land in ``filtered``.

    ``(n, 8)`` ``int32``: row ``p`` holds the position of
    ``filtered.codes[p]`` extended right by base ``b`` in column ``b`` and
    left by base ``b`` in column ``4 + b`` (canonicalised first in a
    canonical table), or -1 where that k-mer is not stored.  This is the
    whole reachability relation of the greedy walk — the edges
    :mod:`repro.trinity.kmer_components` labels and the candidates
    :func:`chain_table` links — and the only search of the table
    Inchworm makes.  ``start`` / ``stop`` probe that block of positions
    only: blocks stack (``np.concatenate``) into the whole table.
    """
    k = filtered.k
    if len(filtered) >= _MAX_POSITIONS:
        raise PipelineError(
            f"inchworm walks at most {_MAX_POSITIONS - 1} k-mers, got {len(filtered)}"
        )
    stored = filtered.codes[start:stop]
    landing = np.empty((stored.size, 8), dtype=np.int32)
    for half, right in ((landing[:, :4], True), (landing[:, 4:], False)):
        cands = extension_candidates(stored, k, right).reshape(-1)
        if filtered.canonical:
            cands = np.minimum(cands, revcomp_codes(cands, k))
        pos, found = filtered.find(cands)
        half[...] = np.where(found, pos, -1).reshape(-1, 4)
    return landing


def probe(
    filtered: KmerCounter, start: int = 0, stop: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`neighbours` of positions ``start:stop`` and that block's
    :func:`~repro.trinity.kmer_components.overlap_edges`."""
    landing = neighbours(filtered, start, stop)
    stored = filtered.codes[start:stop]
    one_sided = revcomp_codes(stored, filtered.k) < stored if filtered.canonical else None
    return landing, overlap_edges(landing, start, one_sided)


# --------------------------------------------------------------------------
# Chains: single-successor links laid out so a branch-free run is a slot range
# --------------------------------------------------------------------------


class ChainTable(NamedTuple):
    """One queue's successor table, laid out for :func:`walk`.

    Each branch-free chain holds slots ``lo[s]..hi[s]``.  A slot state is
    ``slot << 1 | e``, ``e`` the orientation relative to ``fwd[slot]``,
    the stored code's side (0 right, 1 left) facing ``slot + 1``: a walk
    towards ``d`` (0 right, 1 left) moves up the chain when ``e == d``.
    Queue entry ``i``'s row in orientation ``o`` towards ``d`` reads side
    ``o ^ d``: ``links[i << 2 | o << 1 | o ^ d]`` is its one candidate's
    state, -1 for none, ``-2 - f`` at fork ``f`` (``forks[f]``, best first).
    """

    marks: memoryview  # queue index -> the slot seeding from it claims
    starts: memoryview  # queue index -> its state as stored, where its walk starts
    slots: memoryview  # slot -> queue index
    fwd: memoryview
    lo: memoryview
    hi: memoryview
    links: memoryview
    forks: List[List[int]]

    def row(self, i: int, o: int, d: int) -> List[int]:
        """Queue entry ``i``'s candidates in orientation ``o`` towards ``d``,
        best first, as ``j << 1 | orientation`` queue states."""
        nxt = self.links[i << 2 | o << 1 | o ^ d]
        states = [] if nxt == -1 else [nxt] if nxt >= 0 else self.forks[-2 - nxt]
        return [self.slots[t >> 1] << 1 | (t & 1) ^ self.fwd[t >> 1] for t in states]


def _chain_slots(j: np.ndarray, flip: np.ndarray, n_live: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per entry its slot, its side facing the next slot and its chain's
    first and last slot, from per-(entry, side) only candidate, landing
    orientation and candidate count: mutual half-edges ``2i + side`` join,
    pointer jumping ranks each chain once per direction, and a cycle is
    cut where it steps down in id, in both directions alike."""
    mate = np.where(n_live == 1, 2 * j + (1 ^ flip ^ np.arange(2)), -1).ravel()
    half = np.arange(mate.size)
    join = mate >= 0
    join[join] = (mate[mate[join]] == half[join]) & (mate[join] >> 1 != half[join] >> 1)
    prev = np.full(mate.size, -1)
    prev[mate[join] ^ 1] = half[join]
    del mate, join
    while True:
        up, dist = np.where(prev >= 0, prev, half), (prev >= 0).astype(np.intp)
        for _ in range(prev.size.bit_length()):
            dist += dist[up]
            up, last = up[up], up
            if np.array_equal(up, last):
                break
        cut = np.flatnonzero((prev[up] >= 0) & (prev > half))  # on a cycle
        if not cut.size:
            break
        prev[prev[cut] ^ 1] = -1
        prev[cut] = -1
    fwd = (up[1::2] < up[::2]).astype(np.intp)
    head = np.minimum(up[1::2], up[::2])
    length = np.bincount(head, minlength=half.size)
    first = (np.cumsum(length) - length)[head]
    return first + dist[half[::2] + fwd], fwd, first, first + length[head] - 1


def chain_table(
    filtered: KmerCounter,
    salt: int,
    landing: np.ndarray,
    queue: np.ndarray,
) -> ChainTable:
    """The successor table of ``queue``'s positions (whole components).

    A candidate is a landing stored with a count > 0.  The row of
    orientation ``o`` (0 as stored, 1 reverse complemented; 0 only in a
    strand-specific table) towards ``d`` lands where side ``o ^ d`` of the
    stored code does, as ``rightext_b(rc(c)) == rc(leftext_{3-b}(c))``.  Only
    fork rows are ordered by the greedy comparator: count descending,
    salted hash of the *directed* candidate, base.  Sides that are each
    other's only candidate join chains (:func:`_chain_slots`).
    """
    k, codes, values, n = filtered.k, filtered.codes, filtered.values, queue.size
    canonical = filtered.canonical
    row_of = np.append(np.full(len(filtered), -2, np.int32), np.int32(-1))  # -1: no k-mer
    row_of[queue] = np.arange(n)
    # A seed claims its canonical k-mer: its own entry in a well-formed
    # table.  A stored directed code (hand-built tables only) claims its
    # canonical partner's where queued, else its own: no walk lands there.
    stored, marks = codes[queue], np.arange(n)
    canons = np.minimum(stored, revcomp_codes(stored, k)) if canonical else stored
    odd = np.flatnonzero(canons != stored)
    pos, found = filtered.find(canons[odd])
    held = found & (row_of[pos] >= 0)
    marks[odd[held]] = row_of[pos[held]]
    to = row_of[np.take(landing, queue, axis=0)]
    if (to == -2).any():
        raise PipelineError("chain_table needs whole components: a landing is not queued")
    live = np.append(values[queue] > 0, False)[to]
    # Per side (0 right, 1 left): candidate count, first column (a side's
    # four flags are one word's bytes), its queue entry and orientation.
    word = live.view("<u4")
    low = word & (0 - word)
    n_live = (word * np.uint32(0x01010101)) >> 24
    col = (low > 0xFF).astype(np.intp) + (low > 0xFFFF) + (low > 0xFFFFFF)
    j = to.ravel()[np.arange(0, 8 * n, 4).reshape(n, 2) + col]
    cand = [extension_candidates(stored, k, d == 0)[np.arange(n), col[:, d]] for d in (0, 1)]
    flip = np.stack(cand, axis=1) != stored[j]
    # Fork rows, per (entry, o, side): their candidates by the comparator.
    count = np.stack([n_live, n_live * canonical], axis=1).ravel()
    fork = np.flatnonzero(count >= 2)
    fi, fo, fs = fork >> 2, fork >> 1 & 1, fork & 1
    cols = 4 * fs[:, None] + np.where(fo[:, None] == 1, 3 - np.arange(4), np.arange(4))
    code = np.where(fo == 1, revcomp_codes(stored[fi], k), stored[fi])
    right = (fo == fs)[:, None]  # d = o ^ side
    directed = np.where(right, *(extension_candidates(code, k, r) for r in (True, False)))
    fj = to[fi[:, None], cols]
    rank = np.where(live[fi[:, None], cols], values[queue[fj]], 0)
    order = np.lexsort((tie_break_codes(directed, salt), -rank))
    fork_flip = directed != codes[queue[fj]]
    del to, live, word, low, col, cand, canons  # freed before the layout's
    slot_of, fwd, lo, hi = _chain_slots(j, flip, n_live)
    slots = np.empty(n, dtype=np.intp)
    slots[slot_of] = np.arange(n)
    # Links per (entry, o, side): an orientation-1 landing flips unless a palindrome.
    pal = stored == revcomp_codes(stored, k) if canonical and k % 2 == 0 else np.zeros(n, bool)
    state = slot_of[j] << 1 | fwd[j]
    links = np.stack([state ^ flip, state ^ (~flip & ~pal[j])], axis=1).ravel()
    links[count != 1] = -1
    links[fork] = -2 - np.arange(fork.size)
    states = np.where(rank > 0, slot_of[fj] << 1 ^ fwd[fj] ^ fork_flip, -1)
    forks = [[x for x in row if x >= 0] for row in np.take_along_axis(states, order, 1).tolist()]
    views = (slot_of[marks], slot_of << 1 | fwd, slots, fwd[slots], lo[slots], hi[slots], links)
    return ChainTable(*map(memoryview, views), forks)


# --------------------------------------------------------------------------
# Walk: whole chains at a time, the first unused candidate at a chain's end
# --------------------------------------------------------------------------


def walk(
    table: ChainTable, used: bytearray, seed: int, max_len: int
) -> Tuple[int, List[int]]:
    """Greedily extend one contig from slot state ``seed`` (its ``used``
    byte claimed), right then left, to at most ``max_len`` k-mers: a jump
    to a chain's end, the slot before a used one or the cap, then the
    exit row's first unused candidate.  Returns the k-mer count and the
    runs, left end first, as ``[first, last, ...]`` states a slot apart.
    """
    _, _, slots, fwd, lo, hi, links, forks = table
    arms: Tuple[List[int], List[int]] = ([seed, seed], [])
    n = 1
    for d, arm in enumerate(arms):
        cur = seed
        while n < max_len:
            s = cur >> 1
            if cur & 1 == d:  # up the chain
                end = min(hi[s], s + max_len - n)
                hit = used.find(1, s + 1, end + 1)
                last = end if hit < 0 else hit - 1
                used[s + 1 : last + 1] = b"\x01" * (last - s)
            else:
                end = max(lo[s], s - max_len + n)
                hit = used.rfind(1, end, s)
                last = end if hit < 0 else hit + 1
                used[last:s] = b"\x01" * (s - last)
            if last != s:
                arm += (cur + (2 if last > s else -2), cur + 2 * (last - s))
                cur += 2 * (last - s)
                n += abs(last - s)
            if hit >= 0 or n >= max_len:
                break
            o = (cur ^ fwd[last]) & 1
            nxt = links[slots[last] << 2 | o << 1 | o ^ d]
            if nxt < -1:
                nxt = next((x for x in forks[-2 - nxt] if not used[x >> 1]), -1)
            elif nxt >= 0 and used[nxt >> 1]:
                nxt = -1
            if nxt < 0:
                break
            used[nxt >> 1] = 1
            arm += (nxt, nxt)
            cur = nxt
            n += 1
    return n, arms[1][::-1] + arms[0]


_BASE_BYTES = np.frombuffer(b"ACGT", dtype=np.uint8)
#: Queue entries whose claims one gather reads: most are claimed before
#: their turn, so only the rest are visited one by one.
_SEED_BLOCK = 256


def assemble_queue(
    filtered: KmerCounter,
    config: InchwormConfig,
    landing: np.ndarray,
    queue: np.ndarray,
) -> List[Tuple[Tuple[int, int, int], str, float]]:
    """The contigs seeded from ``queue``: the positions of whole
    components in seeding order (:func:`seed_queues`), or of the whole
    table (:func:`_seed_order`).

    The chain table over ``queue``, then one walk from every entry still
    unclaimed when its turn comes.  A greedy walk never leaves its seed's
    component and a component's seed order is the global order restricted
    to it, so every walk replays exactly the steps the serial assembler
    takes inside that component: the contigs are the serial output
    restricted to ``queue``'s components, in seeding order, each keyed by
    its seed's comparator tuple so that :func:`keyed_contigs` re-emits
    any union of them as the serial list.  Bases and coverage are read
    off the visited states in one pass at the end: the directed code of a
    state is the stored code or its reverse complement, consecutive codes
    overlap by k-1 so each adds its last base, and coverage is the mean
    of the visited *filtered* counts.
    """
    k = filtered.k
    if k < 2:
        raise PipelineError(f"inchworm needs k >= 2, got {k}")
    salt = _salt(config)
    table = chain_table(filtered, salt, landing, queue)
    fwd = np.asarray(table.fwd)
    used = bytearray(queue.size)
    min_kmers = config.resolved_min_length(k) - k + 1
    walks: List[Tuple[int, int, List[int]]] = []
    starts, marks = table.starts, table.marks
    claimed, mark_of = np.frombuffer(used, dtype=np.uint8), np.asarray(marks)
    for at in range(0, queue.size, _SEED_BLOCK):
        # A block's seeds still unclaimed as it starts, found in one
        # gather; a walk may claim a later one, so each is checked again.
        block = np.flatnonzero(claimed[mark_of[at : at + _SEED_BLOCK]] == 0)
        for seed in (block + at).tolist():
            if not used[marks[seed]]:
                used[marks[seed]] = 1
                n, runs = walk(table, used, starts[seed], config.max_contig_length)
                if n >= min_kmers:
                    walks.append((seed, n, runs))
    if not walks:
        return []
    seeds, lengths, paths = zip(*walks)
    runs = np.fromiter(chain.from_iterable(paths), dtype=np.int64).reshape(-1, 2)
    size = np.abs(runs[:, 1] - runs[:, 0]) // 2 + 1  # a run's states, expanded
    step = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    step *= np.repeat(np.sign(runs[:, 1] - runs[:, 0]), size)
    states = np.repeat(runs[:, 0], size) + 2 * step
    at = queue[np.asarray(table.slots)[states >> 1]]
    directed = filtered.codes[at]
    flipped = ((states ^ fwd[states >> 1]) & 1).astype(bool)  # canonical only
    directed[flipped] = revcomp_codes(directed[flipped], k)
    starts = np.cumsum(lengths) - lengths
    totals = np.add.reduceat(filtered.values[at], starts)
    last_bases = _BASE_BYTES[(directed & np.uint64(3)).astype(np.intp)].tobytes().decode("ascii")
    keys = zip(*(key.tolist() for key in _seed_keys(filtered, salt, queue[list(seeds)])))
    return [
        (key, first + last_bases[a + 1 : a + n], float(total) / n)
        for key, first, a, n, total in zip(
            keys, decode_kmers(directed[starts], k), starts.tolist(), lengths, totals.tolist()
        )
    ]


def keyed_contigs(keyed: Iterable[tuple]) -> List[Contig]:
    """Keyed contigs as the serial loop emits them: ascending seed key,
    named ``iw_contig_{i}`` in that order."""
    return [
        Contig(name=f"iw_contig_{i}", seq=seq, coverage=cov)
        for i, (_key, seq, cov) in enumerate(sorted(keyed))
    ]


def inchworm_assemble(
    counts: KmerCounter,
    config: Optional[InchwormConfig] = None,
) -> List[Contig]:
    """Assemble contigs from k-mer counts; deterministic given the seed.

    The chain table of every stored k-mer, walked in global seed order.
    """
    cfg = config or InchwormConfig()
    if counts.k < 2:
        raise PipelineError(f"inchworm needs k >= 2, got {counts.k}")
    queue = _seed_order(counts, _salt(cfg))
    return keyed_contigs(assemble_queue(counts, cfg, neighbours(counts), queue))
