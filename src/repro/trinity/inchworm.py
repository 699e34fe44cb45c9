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
candidates is a property of the table, not of the step.  The assembler
is therefore probe -> rows -> walk:

:func:`neighbours`
    The probe, and the only table search: for every stored k-mer the
    landing position of its four right and four left extensions.
:func:`preference_rows`
    Per walked k-mer, orientation and direction, those landings ordered
    by the greedy comparator — built vectorised by whoever walks them
    (HipMer's traversal stores a k-mer's extensions with it for the same
    reason).
:func:`walk`
    One contig: from a seed, the first not-yet-used entry of each row.

Both assemblers are that walk over a seed queue, :func:`assemble_queue`:
rows for the queued positions, then a walk from each in queue order.
:func:`inchworm_assemble`, which the serial pipeline runs, queues every
position in the global seed order.  :mod:`repro.parallel.mpi_inchworm`
queues, per simulated OpenMP thread, the positions of the components
its rank dealt it (:func:`seed_queues`): a greedy walk never leaves the
connected component of its seed in the k-mer overlap graph, so every
landing is owned and the keyed union over any deal is the serial
output.  The kernel reads no clock: the stage's ``comm.map`` window
times each thread's call.  The per-step scalar loop both replaced is the
oracle in ``tests/reference_inchworm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PipelineError
from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import decode_kmer, revcomp_codes
from repro.seq.records import Contig
from repro.trinity.jellyfish import JellyfishCounts
from repro.util.rng import derive_seed

#: Fibonacci-hash multiplier shared by every Inchworm tie-break.
GOLDEN = 0x9E3779B97F4A7C15

#: Row entries are ``int32`` walk states (``row << 1 | orientation``), so
#: a table of this many k-mers or more cannot be walked: the probe refuses.
_MAX_POSITIONS = 1 << 30

#: Positions per vectorised pass of the row builder.  Bounds its transient
#: candidate, count and hash arrays (~0.5 KB a position) whatever the
#: number of k-mers a thread owns.
_ROW_BLOCK = 1 << 12


@dataclass(frozen=True)
class InchwormConfig:
    """Inchworm parameters (defaults mirror Trinity's spirit, scaled)."""

    min_kmer_count: int = 2  # error-kmer removal threshold
    min_contig_length: int = 0  # 0 -> use 2*k (GraphFromFasta window size)
    max_contig_length: int = 200_000  # cycle guard, in k-mers
    seed: int = 0  # tie-break stream

    def __post_init__(self) -> None:
        if self.min_kmer_count < 0:
            raise PipelineError(f"min_kmer_count must be >= 0, got {self.min_kmer_count}")
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
    """Seeding priority, as a permutation of ``filtered``'s positions."""
    return np.lexsort(_seed_keys(filtered, salt)[::-1])


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
    permutation built.
    """
    if not thread_components:
        raise PipelineError("inchworm needs at least one thread's component list")
    thread_of = np.full(len(filtered), -1, dtype=np.intp)
    for t, components in enumerate(thread_components):
        thread_of[np.asarray(components, dtype=np.intp)] = t
    thread = thread_of[component_ids]
    at = np.flatnonzero(thread >= 0)
    thread = thread[at]
    order = np.lexsort((*_seed_keys(filtered, _salt(config), at)[::-1], thread))
    bounds = np.searchsorted(thread[order], np.arange(1, len(thread_components)))
    return np.split(at[order], bounds)


def _seed_marks(filtered: KmerCounter, canonical: bool, queue: np.ndarray) -> np.ndarray:
    """Per ``queue`` entry: the queue index whose ``used`` slot seeding
    from it claims.

    A seed consumes its *canonical* k-mer.  In a well-formed table that
    is the seed's own entry and nothing is searched.  A stored directed
    code (hand-built tables only) claims its canonical partner's slot
    where ``queue`` holds it, and otherwise — the partner was filtered
    away — its own: no walk can land there, and it is seeded at most once.
    """
    marks = np.arange(queue.size)
    if not canonical:
        return marks
    stored = filtered.codes[queue]
    canons = np.minimum(stored, revcomp_codes(stored, filtered.k))
    odd = np.flatnonzero(canons != stored)
    if odd.size:
        pos, found = filtered.find(canons[odd])
        row_of = np.full(len(filtered), -1, dtype=np.int64)
        row_of[queue] = marks
        partner = row_of[pos]
        held = found & (partner >= 0)
        marks[odd[held]] = partner[held]
    return marks


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


def neighbours(
    filtered: KmerCounter, canonical: bool = True, start: int = 0, stop: Optional[int] = None
) -> np.ndarray:
    """Where each stored k-mer's single-base extensions land in ``filtered``.

    ``(n, 8)`` ``int32``: row ``p`` holds the position of
    ``filtered.codes[p]`` extended right by base ``b`` in column ``b`` and
    left by base ``b`` in column ``4 + b`` (canonicalised first when
    ``canonical``), or -1 where that k-mer is not stored.  This is the
    whole reachability relation of the greedy walk — the edges
    :mod:`repro.trinity.kmer_components` labels and the candidates
    :func:`preference_rows` orders — and the only search of the table
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
        if canonical:
            cands = np.minimum(cands, revcomp_codes(cands, k))
        pos, found = filtered.find(cands)
        half[...] = np.where(found, pos, -1).reshape(-1, 4)
    return landing


# --------------------------------------------------------------------------
# Rows: each walked k-mer's candidates in the order the greedy rule tries them
# --------------------------------------------------------------------------


def preference_rows(
    filtered: KmerCounter,
    canonical: bool,
    salt: int,
    landing: np.ndarray,
    queue: np.ndarray,
) -> np.ndarray:
    """Successor table of the positions in ``queue``.

    ``rows[i, o, d]`` are the up to four extensions of ``queue[i]``'s
    k-mer read in orientation ``o`` (0 as stored, 1 reverse-complemented;
    0 only unless ``canonical``) towards ``d`` (0 right, 1 left), best
    first by the greedy comparator — count descending, then the salted
    hash of the *directed* candidate ascending, then base ascending —
    and padded with -1.  A candidate that is absent, or stored with a
    count <= 0, is no candidate.  An entry is the walk state it leads
    to, ``j << o_bits | orientation``: ``j`` the landing position's index
    in ``queue`` (every landing of a walked position must be in
    ``queue``: pass whole components of ``landing``), orientation 1 when
    the directed candidate is the reverse complement of the stored code.

    The reverse orientation costs no search: ``rightext_b(rc(c))`` is the
    reverse complement of ``leftext_{3-b}(c)``, so it lands where that
    does — ``landing``'s other half, base order mirrored.  Only the
    directed codes, which the tie hash reads, are recomputed.
    """
    k, codes, values = filtered.k, filtered.codes, filtered.values
    o_bits = 1 if canonical else 0
    row_of = np.full(len(filtered), -1, dtype=np.int32)
    row_of[queue] = np.arange(queue.size, dtype=np.int32)
    rows = np.empty((queue.size, 1 + o_bits, 2, 4), dtype=np.int32)
    for a in range(0, queue.size, _ROW_BLOCK):
        part = queue[a : a + _ROW_BLOCK]
        stored, lands = codes[part], landing[part]
        for o in range(1 + o_bits):
            directed = revcomp_codes(stored, k) if o else stored
            for d, right in enumerate((True, False)):
                cands = extension_candidates(directed, k, right)
                half = lands[:, :4] if right != bool(o) else lands[:, 4:]
                land = half[:, ::-1] if o else half
                at = np.maximum(land, 0)
                count = np.where(land >= 0, values[at], 0)
                np.maximum(count, 0, out=count)
                # Stable two-key sort along each row: equal (count, hash)
                # keep base order, and no count is too large for the key.
                order = np.lexsort((tie_break_codes(cands, salt), -count))
                row = row_of[at]
                if (row[count > 0] < 0).any():
                    raise PipelineError(
                        "preference_rows needs whole components: a queued k-mer "
                        "extends to a stored k-mer outside the queue"
                    )
                state = (row << o_bits) | (cands != codes[at])
                state[count == 0] = -1
                rows[a : a + part.size, o, d] = np.take_along_axis(state, order, axis=1)
    return rows


# --------------------------------------------------------------------------
# Walk: the first unused entry of each row, from a seed to both dead ends
# --------------------------------------------------------------------------


def walk(
    rows: Sequence[int], used: bytearray, o_bits: int, seed: int, max_len: int
) -> List[int]:
    """Greedily extend one contig from walk state ``seed``.

    ``rows`` is :func:`preference_rows` flattened; ``used`` has one slot
    per row index and the caller has claimed the seed's.  Extends right
    until a row has no unused entry, then left from the seed, claiming
    each landing, for at most ``max_len`` k-mers in all.  Returns the
    visited states, left end first.
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


_BASE_BYTES = np.frombuffer(b"ACGT", dtype=np.uint8)


def assemble_queue(
    filtered: KmerCounter,
    canonical: bool,
    config: InchwormConfig,
    landing: np.ndarray,
    queue: np.ndarray,
) -> List[Tuple[Tuple[int, int, int], str, float]]:
    """The contigs seeded from ``queue``: the positions of whole
    components in seeding order (:func:`seed_queues`), or of the whole
    table (:func:`_seed_order`).

    Rows over ``queue``, then one walk from every entry still unclaimed
    when its turn comes.  A greedy walk never leaves its seed's component
    and a component's seed order is the global order restricted to it,
    so every walk replays exactly the steps the serial assembler takes
    inside that component: the contigs are the serial output restricted
    to ``queue``'s components, in seeding order, each keyed by its seed's
    comparator tuple so that :func:`keyed_contigs` re-emits any union of
    them as the serial list.  Bases and coverage are read off the visited
    states in one pass at the end: the directed code of a state is the
    stored code or its reverse complement, consecutive codes overlap by
    k-1 so each adds its last base, and coverage is the mean of the
    visited *filtered* counts.
    """
    k = filtered.k
    if k < 2:
        raise PipelineError(f"inchworm needs k >= 2, got {k}")
    o_bits = 1 if canonical else 0
    salt = _salt(config)
    rows = preference_rows(filtered, canonical, salt, landing, queue)
    flat = memoryview(rows.reshape(-1))  # plain ints out, no second copy of the table
    used = bytearray(queue.size)
    min_kmers = config.resolved_min_length(k) - k + 1
    seeds: List[int] = []
    paths: List[List[int]] = []
    for seed, mark in enumerate(_seed_marks(filtered, canonical, queue).tolist()):
        if used[mark]:
            continue
        used[mark] = 1
        path = walk(flat, used, o_bits, seed << o_bits, config.max_contig_length)
        if len(path) >= min_kmers:
            seeds.append(seed)
            paths.append(path)
    if not paths:
        return []
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    states = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum()))
    at = queue[states >> o_bits]
    directed = filtered.codes[at]
    if canonical:
        flipped = (states & 1).astype(bool)
        directed[flipped] = revcomp_codes(directed[flipped], k)
    starts = np.cumsum(lengths) - lengths
    totals = np.add.reduceat(filtered.values[at], starts)
    last_bases = _BASE_BYTES[(directed & np.uint64(3)).astype(np.intp)].tobytes().decode("ascii")
    keys = zip(*(key.tolist() for key in _seed_keys(filtered, salt, queue[seeds])))
    return [
        (key, decode_kmer(first, k) + last_bases[a + 1 : a + n], float(total) / n)
        for key, first, a, n, total in zip(
            keys, directed[starts].tolist(), starts.tolist(), lengths.tolist(), totals.tolist()
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
    counts: JellyfishCounts,
    config: Optional[InchwormConfig] = None,
) -> List[Contig]:
    """Assemble contigs from k-mer counts; deterministic given the seed.

    Rows for every stored k-mer, then the walk over the global seed order.
    """
    cfg = config or InchwormConfig()
    if counts.k < 2:
        raise PipelineError(f"inchworm needs k >= 2, got {counts.k}")
    filtered = counts.index.filtered(cfg.min_kmer_count)
    queue = _seed_order(filtered, _salt(cfg))
    return keyed_contigs(
        assemble_queue(filtered, counts.canonical, cfg, neighbours(filtered, counts.canonical), queue)
    )
