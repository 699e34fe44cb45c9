"""Sorted-array k-mer indexes: the shared data structure of the pipeline.

Every hot stage of the reproduction keys work off a packed-k-mer table —
Jellyfish counts them, Inchworm extends over them, GraphFromFasta welds
on them, ReadsToTranscripts assigns reads through them, Bowtie seeds its
alignments on them.  Before this
module each stage carried its own ``Dict[int, int]``, probed one Python
lookup per k-mer position.  Here the table is one subsystem: an immutable
pair of parallel numpy arrays — ``codes`` (sorted unique ``uint64``
2-bit-packed k-mers) and ``values`` (``int64`` payload) — so that

* membership / lookup of a whole batch is one ``np.searchsorted``;
* set operations are ``np.intersect1d`` / ``np.isin`` on the codes;
* construction is sort + ``np.unique`` with segmented reductions
  (``np.add.reduceat`` for counts, ``np.minimum.reduceat`` for min-id maps);
* serialization round-trips the Jellyfish dump format (FASTA-like,
  header=count, body=k-mer) that the pipeline already writes.

Two payload interpretations cover every consumer:

:class:`KmerCounter`
    code -> abundance (Jellyfish / DSK / Inchworm), with the strand mode
    its codes were made in.
:class:`KmerMap`
    code -> component id, smallest id winning ties (ReadsToTranscripts).

One consumer keeps the idiom but not the class: a seed occurs at many
contig positions, so :class:`repro.trinity.bowtie.BowtieIndex` holds
sorted codes *with* duplicates beside parallel ``(contig, pos)`` arrays
and brackets each code's run with a ``searchsorted`` left/right pair.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import SequenceError
from repro.seq.alphabet import CODE_TO_BASE
from repro.seq.kmers import _check_k, encode_kmer

PathLike = Union[str, Path]

_U64 = np.uint64
_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)


class KmerIndex:
    """Immutable sorted-``uint64`` k-mer index: codes + parallel values.

    ``codes`` must be strictly increasing (sorted unique); ``values[i]``
    is the payload of ``codes[i]``.  Constructors below enforce the
    invariant; building directly is for callers that already hold sorted
    unique arrays.
    """

    __slots__ = ("k", "codes", "values", "_bucket_prefix", "_bucket_shift", "_bucket_depth")

    def __init__(self, k: int, codes: np.ndarray, values: np.ndarray) -> None:
        _check_k(k)
        codes = np.ascontiguousarray(codes, dtype=np.uint64)
        values = np.ascontiguousarray(values, dtype=np.int64)
        if codes.shape != values.shape or codes.ndim != 1:
            raise SequenceError(
                f"codes/values must be parallel 1-d arrays, got {codes.shape} vs {values.shape}"
            )
        self.k = k
        self.codes = codes
        self.values = values
        codes.setflags(write=False)
        values.setflags(write=False)
        self._bucket_prefix = None  # built lazily on the first large find()
        self._bucket_shift = 0
        self._bucket_depth = 0

    def __reduce__(self):
        # Unpickled through __init__, so a restored index is read-only too
        # (and the lazily built lookup accelerator is not pickled).
        return type(self), (self.k, self.codes, self.values)

    # -- scalar interface ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.codes.size)

    def __contains__(self, code: int) -> bool:
        i = int(np.searchsorted(self.codes, _U64(code)))
        return i < self.codes.size and int(self.codes[i]) == int(code)

    def get(self, code: int, default: int = 0) -> int:
        """Payload of one code, or ``default`` if absent."""
        i = int(np.searchsorted(self.codes, _U64(code)))
        if i < self.codes.size and int(self.codes[i]) == int(code):
            return int(self.values[i])
        return default

    # -- batched interface (the hot path) ----------------------------------

    def _ensure_buckets(self) -> None:
        """Build the top-bits bucket accelerator for batched lookups.

        ``np.searchsorted`` against tens of thousands of codes is cache-
        and branch-miss bound (~100 ns/query on commodity hosts).  A
        prefix table over the codes' top bits narrows every query to a
        handful of candidates first: ``prefix[b]`` is the index of the
        first code whose top bits are ``>= b`` (an exclusive running
        count, so ``prefix[b] .. prefix[b+1]`` brackets bucket ``b``),
        after which a fixed-depth vectorised binary search resolves the
        exact position.  Cheap to build (one bincount + cumsum) and safe
        to race: concurrent builders produce identical arrays.
        """
        nbits = 2 * self.k
        bits = min(nbits, max(int(self.codes.size).bit_length(), 6))
        shift = np.uint64(nbits - bits)
        counts = np.bincount(
            (self.codes >> shift).astype(np.int64), minlength=(1 << bits) + 1
        )
        prefix = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=prefix[1:])
        self._bucket_shift = shift
        # L.bit_length() halvings take a length-L range all the way to an
        # empty one, where lo == the searchsorted-left insertion point.
        self._bucket_depth = int(counts.max()).bit_length()
        self._bucket_prefix = prefix

    def find(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batched lookup: positions of ``query`` codes in this index.

        Returns ``(positions, found)``: ``positions[i]`` indexes into
        ``codes``/``values`` where ``found[i]`` is True; positions of
        missing codes are clamped to 0 and must be ignored.

        Small batches go straight to ``np.searchsorted``; large batches
        use the bucket accelerator (top-bits prefix table + fixed-depth
        branchless binary search), which is ~4x faster per query once the
        code array outgrows cache.
        """
        query = np.asarray(query, dtype=np.uint64)
        size = self.codes.size
        if size == 0:
            return np.zeros(query.shape, dtype=np.intp), np.zeros(query.shape, dtype=bool)
        if query.size < 1024 or size < 1024:
            pos = np.searchsorted(self.codes, query)
        else:
            if self._bucket_prefix is None:
                self._ensure_buckets()
            bucket = (query >> self._bucket_shift).astype(np.int64)
            lo = self._bucket_prefix[bucket]
            hi = self._bucket_prefix[bucket + 1]
            last = size - 1
            for _ in range(self._bucket_depth):
                open_ = lo < hi
                mid = (lo + hi) >> 1
                go_right = open_ & (self.codes[np.minimum(mid, last)] < query)
                lo = np.where(go_right, mid + 1, lo)
                hi = np.where(open_ & ~go_right, mid, hi)
            pos = lo
        pos[pos == size] = 0
        found = self.codes[pos] == query
        return pos, found

    def contains(self, query: np.ndarray) -> np.ndarray:
        """Vectorised membership of ``query`` codes (any order, dups ok)."""
        _pos, found = self.find(query)
        return found

    def memory_bytes(self) -> int:
        """Actual backing-store size (both arrays)."""
        return int(self.codes.nbytes + self.values.nbytes)


class KmerCounter(KmerIndex):
    """code -> count, built by segmented reduction over raw code streams.

    ``canonical`` is the table's strand mode, set where its codes are
    made: True when each k-mer is stored as ``min(code, revcomp)``
    (Jellyfish's ``-C``), False when it is stored as read (Trinity's
    ``--SS_lib_type``).  Every consumer reads the mode from the table.
    """

    __slots__ = ("canonical",)

    def __init__(self, k: int, codes: np.ndarray, values: np.ndarray, canonical: bool) -> None:
        super().__init__(k, codes, values)
        self.canonical = bool(canonical)

    def __reduce__(self):
        return type(self), (self.k, self.codes, self.values, self.canonical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KmerCounter):
            return NotImplemented
        return (
            self.k == other.k
            and self.canonical == other.canonical
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.values, other.values)
        )

    @classmethod
    def empty(cls, k: int, canonical: bool) -> "KmerCounter":
        return cls(k, _EMPTY_U64, _EMPTY_I64, canonical)

    @classmethod
    def from_pairs(
        cls, codes: np.ndarray, counts: np.ndarray, k: int, canonical: bool
    ) -> "KmerCounter":
        """Merge (code, count) pairs, summing duplicate codes.

        Sort + ``np.add.reduceat`` over segment starts — the merge step of
        batched counting.  The pairs arrive as concatenated sorted runs
        (batches, ranks' parts), which the stable sort merges in linear
        time: 2x faster than the default sort on two whitefly-half halves.
        """
        codes = np.asarray(codes, dtype=np.uint64)
        counts = np.asarray(counts, dtype=np.int64)
        if codes.size == 0:
            return cls.empty(k, canonical)
        order = np.argsort(codes, kind="stable")
        cs = codes[order]
        ns = counts[order]
        starts = np.flatnonzero(np.concatenate(([True], cs[1:] != cs[:-1])))
        return cls(k, cs[starts], np.add.reduceat(ns, starts), canonical)

    def filtered(self, min_count: int) -> "KmerCounter":
        """Drop codes below ``min_count`` (error-kmer removal)."""
        if min_count <= 1:
            return self
        keep = self.values >= min_count
        return KmerCounter(self.k, self.codes[keep], self.values[keep], self.canonical)

    @property
    def total(self) -> int:
        return int(self.values.sum())


class KmerCounterBuilder:
    """Streaming accumulator: per-batch partial counts, one final merge.

    ``add_codes`` reduces each incoming batch to (unique, count) pairs so
    resident size stays proportional to distinct k-mers, then ``build``
    merges all partials with one sort + segmented sum.
    """

    def __init__(self, k: int, canonical: bool) -> None:
        _check_k(k)
        self.k = k
        self.canonical = canonical
        self._codes: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []

    def add_codes(self, codes: np.ndarray) -> None:
        codes = np.asarray(codes, dtype=np.uint64)
        if codes.size == 0:
            return
        uniq, counts = np.unique(codes, return_counts=True)
        self._codes.append(uniq)
        self._counts.append(counts.astype(np.int64))

    def add_pairs(self, codes: np.ndarray, counts: np.ndarray) -> None:
        """Append an already-reduced (code, count) partial.

        For producers that hold per-partition / per-shard ``np.unique``
        output (DSK partitions, remote-rank partials): the arrays go
        straight into the pending list — no dict detour — and the final
        ``build`` merge sums any codes shared across partials.  Each
        partial must itself be sorted-unique (``np.unique`` output), the
        same contract as constructing a :class:`KmerIndex` directly.
        """
        codes = np.asarray(codes, dtype=np.uint64)
        counts = np.asarray(counts, dtype=np.int64)
        if codes.shape != counts.shape or codes.ndim != 1:
            raise SequenceError(
                f"codes/counts must be parallel 1-d arrays, got {codes.shape} vs {counts.shape}"
            )
        if codes.size == 0:
            return
        self._codes.append(codes)
        self._counts.append(counts)

    def memory_bytes(self) -> int:
        """Current size of the pending partial arrays (peak-RAM stats)."""
        return int(
            sum(a.nbytes for a in self._codes) + sum(a.nbytes for a in self._counts)
        )

    def build(self) -> KmerCounter:
        if not self._codes:
            return KmerCounter.empty(self.k, self.canonical)
        if len(self._codes) == 1:
            return KmerCounter(self.k, self._codes[0], self._counts[0], self.canonical)
        return KmerCounter.from_pairs(
            np.concatenate(self._codes), np.concatenate(self._counts), self.k, self.canonical
        )


class KmerMap(KmerIndex):
    """code -> component id; duplicate codes resolve to the smallest id."""

    @classmethod
    def empty(cls, k: int) -> "KmerMap":
        return cls(k, _EMPTY_U64, _EMPTY_I64)

    @classmethod
    def from_pairs(cls, codes: np.ndarray, components: np.ndarray, k: int) -> "KmerMap":
        """Build from (code, component) pairs with min-id tie-break.

        One sort by code, then ``np.minimum.reduceat`` per code segment:
        a minimum does not depend on the order inside a segment.
        """
        codes = np.asarray(codes, dtype=np.uint64)
        components = np.asarray(components, dtype=np.int64)
        if codes.size == 0:
            return cls.empty(k)
        order = np.argsort(codes)
        cs = codes[order]
        starts = np.flatnonzero(np.concatenate(([True], cs[1:] != cs[:-1])))
        return cls(k, cs[starts], np.minimum.reduceat(components[order], starts))


# --------------------------------------------------------------------------
# Integer rows sorted as one packed uint64
# --------------------------------------------------------------------------


def sorted_rows(keys: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """The 1-d integer columns ``keys`` with their rows sorted as
    ``np.lexsort(keys)`` sorts them (the last key primary).  Led by
    ``np.arange(n)``, the first column is ``np.lexsort`` of the rest.

    numpy's lexsort and stable argsort are merge sorts, 5-12x slower than
    ``np.sort``'s SIMD sort of one ``uint64`` array.  So each key takes
    the bits its range needs (as it is if the rows fit so, else less its
    minimum), the last key highest, and the packed rows are sorted once;
    keys whose widths sum past 64 bits go through ``np.lexsort``.
    """
    keys = [np.asarray(key) for key in keys]
    bounds = [(int(key.min()), int(key.max())) if key.size else (0, 0) for key in keys]
    # A key with no negative value packs as it is when the rows still fit
    # (no pass to subtract its minimum and none to add it back).
    for offset in (False, True):
        fields, top = [], 0
        for low, high in bounds:
            low = low if offset or low < 0 else 0
            fields.append((top, (high - low).bit_length(), low % 2**64))
            top += fields[-1][1]
        if top <= 64:
            break
    else:
        order = np.lexsort(keys)
        return tuple(key[order] for key in keys)
    # In place where it can be (a fresh array of a large sort is page
    # faults): the lowest packed key lands in the rows, the others pass
    # through one scratch field.  uint64 arithmetic wraps, so any integer
    # range packs exactly.
    n = len(keys[0])
    rows, field = None, np.empty(n, dtype=np.uint64)
    for key, (at, width, low) in zip(keys, fields):
        if not width:
            continue
        dst = field if rows is not None else np.empty(n, dtype=np.uint64)
        src = key.view(np.uint64) if key.dtype.itemsize == 8 else key.astype(np.uint64, copy=False)
        if low:
            src = np.subtract(src, np.uint64(low), out=dst)
        if at:
            src = np.left_shift(src, np.uint64(at), out=dst)
        if rows is not None:
            rows |= src
        else:
            rows = dst if src is dst else src.copy()
    rows = np.zeros(n, dtype=np.uint64) if rows is None else rows
    rows.sort()
    columns = []
    for i, (key, (at, width, low)) in enumerate(zip(keys, fields)):
        out = rows if i == len(keys) - 1 else field if i == 0 else None  # reuse both buffers
        if at + width < top:
            column = np.bitwise_and(
                np.right_shift(rows, np.uint64(at), out=out) if at else rows,
                np.uint64((1 << width) - 1), out=out,
            )
        else:
            column = np.right_shift(rows, np.uint64(at), out=out) if at or out is not rows else rows
        if low:
            column += np.uint64(low)
        columns.append(column.view(key.dtype) if key.dtype.itemsize == 8 else column.astype(key.dtype))
    return tuple(columns)


# --------------------------------------------------------------------------
# Jellyfish dump serialization (round-trips trinity.jellyfish's format)
# --------------------------------------------------------------------------


def decode_kmers(codes: np.ndarray, k: int) -> List[str]:
    """Vectorised unpack of many codes into k-mer strings.

    The 2-bit fields are extracted into an (n, k) byte matrix in one shot;
    only the final bytes->str conversion is per-row.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.size == 0:
        return []
    shifts = np.arange(2 * (k - 1), -1, -2, dtype=np.uint64)
    fields = (codes[:, None] >> shifts[None, :]) & _U64(3)
    rows = CODE_TO_BASE[fields.astype(np.uint8)].tobytes()
    return [rows[i * k : (i + 1) * k].decode("ascii") for i in range(codes.size)]


#: ``_BASES4[b]``: the four bases byte ``b`` of a code packs, first base
#: first, as the four ASCII bytes of one ``uint32``.
_BASES4 = CODE_TO_BASE[(np.arange(256)[:, None] >> np.array([6, 4, 2, 0])) & 3]
_BASES4 = _BASES4.view(np.uint32)[:, 0]
#: ``_POW10[j] == 10**j``, up to the largest power below an int64 count's bound.
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def format_counter_dump(codes: np.ndarray, values: np.ndarray, k: int) -> bytes:
    """The Jellyfish text dump (``>count\\nkmer\\n`` per code) of sorted
    ``codes`` and their positive counts ``values``.

    Whole-array passes, nothing per record: each code's eight big-endian
    bytes decode through a four-bases-per-byte table, each count fills
    the widest count's digit columns right-aligned, and one mask drops
    the leading padding row by row.  A slice of a counter renders to the matching
    slice of its dump, so rank blocks concatenate to the serial file.
    """
    _check_k(k)
    n = len(codes)
    if n == 0:
        return b""
    values = np.asarray(values, dtype=np.int64)
    width = max(int(np.searchsorted(_POW10, values.max(), side="right")), 1)
    rows = np.empty((n, width + k + 3), dtype=np.uint8)
    rows[:, 0] = ord(">")
    q = values
    for col in range(width, 0, -1):
        q, rows[:, col] = np.divmod(q, 10)
    rows[:, 1 : width + 1] += ord("0")
    rows[:, width + 1] = rows[:, -1] = ord("\n")
    bases = _BASES4[np.asarray(codes, dtype=">u8").view(np.uint8)].view(np.uint8)
    rows[:, width + 2 : -1] = bases.reshape(n, 32)[:, 32 - k :]
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 1:width] = values[:, None] >= _POW10[width - 1 : 0 : -1]
    return rows[keep].tobytes()


def write_counter_dump(counter: KmerCounter, path: PathLike) -> int:
    """Write :func:`format_counter_dump` of ``counter``; returns #records."""
    Path(path).write_bytes(format_counter_dump(counter.codes, counter.values, counter.k))
    return len(counter)


def read_counter_dump(path: PathLike, canonical: bool) -> KmerCounter:
    """Parse a Jellyfish text dump back into a :class:`KmerCounter`.

    Accepts only what :func:`format_counter_dump` can emit: decimal,
    positive counts and each k-mer once.  The dump does not record the
    strand mode its codes were counted in: ``canonical`` states it.
    """
    counts: List[int] = []
    kmers: List[str] = []
    with open(path, "r", encoding="ascii") as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                header = line[1:]
            else:
                if header is None:
                    raise SequenceError(f"malformed dump near {line!r}")
                if not (header.isdecimal() and int(header) > 0):
                    raise SequenceError(f"dump header is not a positive count: {header!r}")
                counts.append(int(header))
                kmers.append(line)
                header = None
    if not kmers:
        raise SequenceError(f"empty jellyfish dump: {path}")
    k = len(kmers[0])
    for kmer in kmers:
        if len(kmer) != k:
            raise SequenceError(f"inconsistent k in dump: saw {k} then {len(kmer)} ({kmer!r})")
    if len(set(kmers)) != len(kmers):
        raise SequenceError(f"k-mer repeated in dump: {path}")
    codes = np.fromiter((encode_kmer(m) for m in kmers), dtype=np.uint64, count=len(kmers))
    return KmerCounter.from_pairs(codes, np.asarray(counts, dtype=np.int64), k, canonical)
