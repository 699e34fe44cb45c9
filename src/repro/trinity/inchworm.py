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

Two assemblers share one semantics:

:func:`inchworm_assemble`
    The serial reference: one seed at a time, one 4-candidate probe per
    extension step.  The serial pipeline runs it and every identity test
    compares against it.
:func:`inchworm_assemble_components`
    The component kernel behind :mod:`repro.parallel.mpi_inchworm`: a
    greedy walk never leaves the connected component of its seed in the
    filtered k-mer overlap graph, so one serial walker per component,
    all advanced together by one batched probe per step, reproduces the
    reference byte for byte with nothing to arbitrate.  Simulated OpenMP
    threads each own whole components; per-thread virtual clocks are
    charged their share of the measured cost (times any straggler
    slowdown), never changing the output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.openmp.team import TeamResult
from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import canonical_code, decode_kmer, revcomp_codes
from repro.seq.records import Contig
from repro.trinity.jellyfish import JellyfishCounts
from repro.util.rng import derive_seed

#: Fibonacci-hash multiplier shared by every Inchworm tie-break.
GOLDEN = 0x9E3779B97F4A7C15

_TIE_SENTINEL = np.int64(1) << np.int64(33)  # above any 32-bit tie hash


@dataclass(frozen=True)
class InchwormConfig:
    """Inchworm parameters (defaults mirror Trinity's spirit, scaled)."""

    min_kmer_count: int = 2  # error-kmer removal threshold
    min_contig_length: int = 0  # 0 -> use 2*k (GraphFromFasta window size)
    max_contig_length: int = 200_000  # cycle guard
    seed: int = 0  # tie-break stream

    def resolved_min_length(self, k: int) -> int:
        return self.min_contig_length if self.min_contig_length > 0 else 2 * k


# --------------------------------------------------------------------------
# Tie-breaking: one helper, scalar and vectorised, identical semantics
# --------------------------------------------------------------------------


def tie_break_code(code: int, salt: int) -> int:
    """Salted 32-bit tie-break hash of one directed k-mer code.

    Equal-count candidates (and equal-count seeds) are ordered by this
    hash — the modelled source of Trinity's run-to-run variation; a fixed
    salt keeps each individual run fully reproducible.
    """
    return (code * GOLDEN ^ salt) & 0xFFFFFFFF


def tie_break_codes(codes: np.ndarray, salt: int) -> np.ndarray:
    """Vectorised :func:`tie_break_code` over a ``uint64`` code array.

    uint64 wraparound in the multiply leaves the low 32 bits identical to
    the unbounded-int scalar expression, and masking the salt to 32 bits
    before the XOR commutes with the final mask — so scalar and vectorised
    paths can never disagree on a tie (property-tested).
    """
    codes = np.asarray(codes, dtype=np.uint64)
    hashed = (codes * np.uint64(GOLDEN)) ^ np.uint64(salt & 0xFFFFFFFF)
    return (hashed & np.uint64(0xFFFFFFFF)).astype(np.int64)


def _seed_order(filtered: KmerCounter, salt: int) -> np.ndarray:
    """Seeding priority, as a permutation of ``filtered``'s positions.

    Decreasing abundance; ties broken by the seed-salted hash then code,
    so different seeds explore equal-abundance seeds in different orders.
    """
    tie = tie_break_codes(filtered.codes, salt)
    return np.lexsort((filtered.codes, tie, -filtered.values))


# --------------------------------------------------------------------------
# The batched extension probe (public: the kernel and Figure 1 both use it)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionProbe:
    """All four (k-1)-overlap candidates of a batch of growing ends.

    Row ``i`` describes the four single-base extensions of the ``i``-th
    current end; every array is shaped ``(n, 4)``.  ``pos`` indexes the
    probed counter where ``found`` is True (clamped to 0 elsewhere).
    """

    cands: np.ndarray  # uint64 directed candidate codes
    canons: np.ndarray  # uint64 canonical candidate codes
    pos: np.ndarray  # intp positions into the probed counter
    found: np.ndarray  # bool: candidate present in the counter
    counts: np.ndarray  # int64 counts (0 where absent)
    ties: np.ndarray  # int64 salted tie-break hashes of the directed codes


def extension_candidates(cur: np.ndarray, k: int, right) -> np.ndarray:
    """The four directed (k-1)-overlap neighbours of each code in ``cur``.

    ``right`` selects the extension direction — a scalar bool, or a bool
    array aligned with ``cur`` when the batch mixes directions (the
    kernel grows right- and left-phase contigs in the same lockstep).
    """
    cur = np.asarray(cur, dtype=np.uint64)
    b = np.arange(4, dtype=np.uint64)[None, :]
    mask = np.uint64(((1 << (2 * k)) - 1) & 0xFFFFFFFFFFFFFFFF)
    rights = ((cur[:, None] << np.uint64(2)) | b) & mask
    lefts = (b << np.uint64(2 * (k - 1))) | (cur[:, None] >> np.uint64(2))
    direction = np.asarray(right, dtype=bool)
    if direction.ndim == 0:
        return rights if bool(direction) else lefts
    return np.where(direction[:, None], rights, lefts)


def probe_extensions(
    filtered: KmerCounter,
    cur: np.ndarray,
    right,
    salt: int,
    canonical: bool = True,
) -> ExtensionProbe:
    """Resolve every growing end's four candidates in one batched lookup.

    One ``revcomp``/``minimum`` pass canonicalises all ``4 * n``
    candidates, and one :meth:`KmerCounter.find` resolves their counts —
    this is the whole point of the lockstep versus the serial
    4-candidate probe per step.
    """
    k = filtered.k
    cands = extension_candidates(cur, k, right)
    flat = cands.reshape(-1)
    canons = np.minimum(flat, revcomp_codes(flat, k)) if canonical else flat
    pos, found = filtered.find(canons)
    if len(filtered):
        cnts = np.where(found, filtered.values[pos], np.int64(0))
    else:
        cnts = np.zeros(flat.shape, dtype=np.int64)
    shape = cands.shape
    return ExtensionProbe(
        cands=cands,
        canons=canons.reshape(shape),
        pos=pos.reshape(shape),
        found=found.reshape(shape),
        counts=cnts.reshape(shape),
        ties=tie_break_codes(flat, salt).reshape(shape),
    )


def select_extensions(
    probe: ExtensionProbe, blocked: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Pick each row's winning candidate, exactly the serial comparator.

    Highest count first; equal counts resolve to the smallest salted tie
    hash; an exact (count, hash) tie falls to the lowest base index, which
    is what the serial loop's strict ``>`` comparison does.  Returns
    ``(cols, ok)``: the winning column per row, and whether the row has
    any un-blocked solid candidate at all.
    """
    counts = probe.counts
    if blocked is not None:
        counts = np.where(blocked, np.int64(0), counts)
    best_count = counts.max(axis=1)
    ok = best_count > 0
    top = (counts == best_count[:, None]) & (counts > 0)
    ties = np.where(top, probe.ties, _TIE_SENTINEL)
    best_tie = ties.min(axis=1)
    cols = np.argmax(ties == best_tie[:, None], axis=1)
    return cols, ok


# --------------------------------------------------------------------------
# Serial reference
# --------------------------------------------------------------------------


def _seed_marks(filtered: KmerCounter, canonical: bool) -> np.ndarray:
    """Per position: the ``used``-mask slot that seeding from it claims.

    A seed consumes its *canonical* k-mer, so that is the slot to test
    and set.  In a well-formed table that is the seed's own position.  A
    directed code whose canonical partner was filtered away (possible
    only for hand-built tables) falls back to its own slot: no probe can
    ever land there, and it is seeded at most once.
    """
    own = np.arange(len(filtered), dtype=np.intp)
    if not canonical:
        return own
    canons = np.minimum(filtered.codes, revcomp_codes(filtered.codes, filtered.k))
    pos, found = filtered.find(canons)
    return np.where(found, pos, own)


def inchworm_assemble(
    counts: JellyfishCounts,
    config: Optional[InchwormConfig] = None,
) -> List[Contig]:
    """Assemble contigs from k-mer counts; deterministic given the seed.

    This is the per-k-mer reference loop; the component kernel below
    reproduces its output byte for byte.
    """
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
    order_marks = _seed_marks(filtered, canonical)[perm].tolist()

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


# --------------------------------------------------------------------------
# Component kernel: one lockstep across k-mer-graph components
# --------------------------------------------------------------------------

#: Below this many live walkers the lockstep's fixed vector overhead costs
#: more than the scalar per-step probe; the remaining walks finish serially.
_SCALAR_CUTOFF = 6


@dataclass
class ComponentAssembly:
    """Keyed contigs of one kernel call plus the simulated team's timing."""

    #: ``(global seed rank, seq, coverage)`` per contig, in emission order;
    #: :func:`keyed_contigs` re-emits any union of these as the serial list.
    keyed: List[Tuple[int, str, float]]
    team: TeamResult
    thread_clocks: np.ndarray  # virtual seconds per simulated thread
    n_steps: int  # kernel dispatches (lockstep batches + scalar probes)


def keyed_contigs(keyed: Iterable[Tuple[int, str, float]]) -> List[Contig]:
    """Keyed contigs as the serial loop emits them: ascending seed rank,
    named ``iw_contig_{i}`` in that order."""
    return [
        Contig(name=f"iw_contig_{i}", seq=seq, coverage=cov)
        for i, (_key, seq, cov) in enumerate(sorted(keyed))
    ]


class _Walker:
    """One component's serial walk: its seed queue and the contig in hand."""

    __slots__ = (
        "thread", "queue", "marks", "at", "seed", "codes", "left", "cov", "cur", "right",
    )

    def __init__(self, thread: int, queue: List[int], marks: List[int]) -> None:
        self.thread = thread  # simulated thread charged for this walk
        self.queue = queue  # member positions in global seed order
        self.marks = marks  # per member: the used-mask position its seeding claims
        self.at = 0  # next queue entry to try as a seed


def inchworm_assemble_components(
    filtered: KmerCounter,
    canonical: bool,
    config: InchwormConfig,
    seed_rank: np.ndarray,
    thread_components: Sequence[Sequence[np.ndarray]],
    thread_slowdowns: Optional[Sequence[float]] = None,
) -> ComponentAssembly:
    """Assemble whole k-mer-graph components, all of them in one lockstep.

    ``thread_components[t]`` lists the components (member position arrays
    of ``filtered``, from :mod:`repro.trinity.kmer_components`) simulated
    thread ``t`` walks; ``seed_rank[p]`` is position ``p``'s rank in the
    global :func:`_seed_order`.  Each component gets one serial walker
    whose seed queue is its members in global seed order, and every step
    advances *all* live walkers with one :func:`probe_extensions` +
    :func:`select_extensions` against ``filtered``.  A greedy walk never
    leaves its seed's component and components are disjoint, so walkers
    share one ``used`` mask without ever contending: each replays exactly
    the steps :func:`inchworm_assemble` takes inside that component, and
    the contigs — keyed by their seed's global rank — are the serial
    output restricted to these components, at any thread count.

    Timing: one ``thread_time`` window covers everything the call does.
    Each lockstep's share of it (queue setup, seed scans and emits since
    the previous step included) is split over the threads by their share
    of the step's rows, times ``thread_slowdowns`` (one factor per thread,
    >= 1 models a straggler); a tail walk is charged to its own thread.
    A component is indivisible, so the thread holding the largest one is
    the floor of the team makespan.
    """
    k = filtered.k
    if k < 2:
        raise PipelineError(f"inchworm needs k >= 2, got {k}")
    n_threads = len(thread_components)
    if n_threads == 0:
        raise PipelineError("inchworm needs at least one thread's component list")
    slowdowns = np.ones(n_threads) if thread_slowdowns is None else np.asarray(
        thread_slowdowns, dtype=float
    )
    if slowdowns.shape != (n_threads,):
        raise PipelineError(
            f"thread_slowdowns must have one factor per thread, "
            f"got shape {slowdowns.shape} for {n_threads} threads"
        )
    if np.any(slowdowns <= 0):
        raise PipelineError("thread slowdown factors must be positive")

    started = stamp = time.thread_time()
    salt = derive_seed(config.seed, "inchworm-ties")
    min_len = config.resolved_min_length(k)
    max_len = config.max_contig_length
    codes, values = filtered.codes, filtered.values
    marks = _seed_marks(filtered, canonical)
    used = np.zeros(len(filtered), dtype=bool)
    keyed: List[Tuple[int, str, float]] = []
    clocks = np.zeros(n_threads)

    def start(w: _Walker) -> bool:
        """Seed ``w``'s next contig; False once its component is exhausted."""
        while True:
            while w.at < len(w.queue) and used[w.marks[w.at]]:
                w.at += 1
            if w.at == len(w.queue):
                return False
            used[w.marks[w.at]] = True
            w.seed = w.queue[w.at]
            w.cur = int(codes[w.seed])
            w.codes, w.left, w.cov, w.right = [w.cur], [], int(values[w.seed]), True
            if max_len > 1:
                return True
            emit(w)  # the cap admits the bare seed only: nothing to probe

    def emit(w: _Walker) -> None:
        seq = _codes_to_seq(w.left[::-1] + w.codes, k)
        if len(seq) >= min_len:
            n = len(w.codes) + len(w.left)
            keyed.append((int(seed_rank[w.seed]), seq, float(w.cov) / n))

    def advance(w: _Walker, hit: Optional[Tuple[int, int, int]]) -> bool:
        """Apply one probe result; False once ``w``'s component is exhausted."""
        if hit is None:
            if w.right:  # right end exhausted: turn around at the seed
                w.right, w.cur = False, w.codes[0]
                return True
        else:
            code, count, pos = hit
            used[pos] = True
            (w.codes if w.right else w.left).append(code)
            w.cov += count
            w.cur = code
            if len(w.codes) + len(w.left) < max_len:
                return True
        emit(w)
        return start(w)

    def charge(rows: List[_Walker]) -> None:
        """Bill the time since the last stamp to the threads of ``rows``."""
        nonlocal stamp, clocks
        now = time.thread_time()
        per_thread = np.bincount([w.thread for w in rows], minlength=n_threads)
        clocks += (now - stamp) * per_thread / len(rows) * slowdowns
        stamp = now

    walkers = []
    for t, components in enumerate(thread_components):
        for members in components:
            queue = members[np.argsort(seed_rank[members])]
            walkers.append(_Walker(t, queue.tolist(), marks[queue].tolist()))
    live = [w for w in walkers if start(w)]
    n_steps = 0
    while len(live) >= _SCALAR_CUTOFF:
        rows, n = live, len(live)
        cur = np.fromiter((w.cur for w in rows), dtype=np.uint64, count=n)
        right = np.fromiter((w.right for w in rows), dtype=bool, count=n)
        probe = probe_extensions(filtered, cur, right, salt, canonical)
        cols, ok = select_extensions(probe, used[probe.pos])
        picked = (np.arange(n), cols)
        hits = zip(
            probe.cands[picked].tolist(),
            probe.counts[picked].tolist(),
            probe.pos[picked].tolist(),
        )
        live = [
            w for w, found, hit in zip(rows, ok.tolist(), hits)
            if advance(w, hit if found else None)
        ]
        n_steps += 1
        charge(rows)
    for w in live:
        alive = True
        while alive:
            alive = advance(
                w, _best_extension(filtered, canonical, used, w.cur, salt, w.right)
            )
            n_steps += 1
        charge([w])
    team = TeamResult(
        values=keyed, makespan=float(clocks.max()), serial_time=stamp - started,
        n_threads=n_threads,
    )
    return ComponentAssembly(keyed=keyed, team=team, thread_clocks=clocks, n_steps=n_steps)


# --------------------------------------------------------------------------


_BASE_BYTES = np.frombuffer(b"ACGT", dtype=np.uint8)


def _codes_to_seq(codes: List[int], k: int) -> str:
    """Reconstruct the contig string from consecutive overlapping codes.

    Consecutive codes share a (k-1)-overlap, so past the first k-mer each
    code contributes exactly its last base (``code & 3``) — one vector
    mask instead of a per-k-mer decode.
    """
    first = decode_kmer(codes[0], k)
    if len(codes) == 1:
        return first
    tail = np.asarray(codes[1:], dtype=np.uint64) & np.uint64(3)
    return first + _BASE_BYTES[tail.astype(np.intp)].tobytes().decode("ascii")


def mean_coverage(contig_seq: str, counts: JellyfishCounts) -> float:
    """Mean k-mer abundance along a sequence (used by GraphFromFasta)."""
    from repro.seq.kmers import kmer_array

    arr = kmer_array(contig_seq, counts.k)
    if arr.size == 0:
        return 0.0
    if counts.canonical:
        arr = np.minimum(arr, revcomp_codes(arr, counts.k))
    return float(np.mean(counts.index.lookup(arr)))
