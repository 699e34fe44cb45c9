"""Vectorised 2-bit k-mer codec.

A k-mer (k <= 31) is packed into a Python/numpy ``uint64``: the first base
occupies the highest-order bit pair, so lexicographic order of strings is
numeric order of codes.  All hot paths (sliding-window extraction,
canonicalisation) are numpy-vectorised, per the optimisation guides: no
per-base Python loops.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SequenceError
from repro.seq.alphabet import BASES, encode_bases

MAX_K = 31

#: Bases one vectorised pack joins: :func:`pack_windows`' ~10 full-length
#: ``uint64`` temporaries cost 2x per base once they leave the cache.  The
#: small end of the measured plateau (DESIGN SS:5.19; every rank thread's
#: malloc arena keeps its transients); output never depends on it.
PACK_BLOCK_BASES = 16_384


def _check_k(k: int) -> None:
    if not (1 <= k <= MAX_K):
        raise SequenceError(f"k must be in [1, {MAX_K}], got {k}")


def encode_kmer(kmer: str) -> int:
    """Pack one k-mer string into an int code.

    >>> encode_kmer("ACGT")
    27
    """
    k = len(kmer)
    _check_k(k)
    codes = encode_bases(kmer)
    if np.any(codes == 255):
        raise SequenceError(f"k-mer contains non-ACGT characters: {kmer!r}")
    # Shift-and-or over the whole codes array at once: dot the 2-bit codes
    # against descending base-4 place weights (same pack as kmer_array).
    weights = np.uint64(1) << (np.uint64(2) * np.arange(k - 1, -1, -1, dtype=np.uint64))
    return int(codes.astype(np.uint64) @ weights)


def decode_kmer(code: int, k: int) -> str:
    """Unpack an int code back into the k-mer string.

    >>> decode_kmer(27, 4)
    'ACGT'
    """
    _check_k(k)
    if code < 0 or code >= (1 << (2 * k)):
        raise SequenceError(f"code {code} out of range for k={k}")
    out = []
    for shift in range(2 * (k - 1), -1, -2):
        out.append(BASES[(code >> shift) & 3])
    return "".join(out)


def pack_windows(codes: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Pack every length-k window of encoded bases into uint64 codes.

    Returns ``(vals, window_ok)`` over all ``codes.size - k + 1`` windows
    (the caller guarantees that count is positive): ``vals`` are the
    packed codes (garbage where invalid) and ``window_ok`` flags windows
    free of non-ACGT bases.

    The pack runs in O(log k) array passes by doubling: width-1 codes
    combine into width-2, width-4, ... blocks, and k is then composed
    from its binary decomposition — ~5 passes instead of a k-wide
    window dot product.
    """
    valid = codes != 255
    safe = np.where(valid, codes, 0).astype(np.uint64)
    blocks = {1: safe}
    width = 1
    while 2 * width <= k:
        b = blocks[width]
        blocks[2 * width] = (b[:-width] << np.uint64(2 * width)) | b[width:]
        width *= 2
    n = codes.size - k + 1
    vals: np.ndarray = None  # type: ignore[assignment]
    off = 0
    for width in sorted(blocks, reverse=True):
        if off + width > k:
            continue
        piece = blocks[width][off : off + n]
        vals = piece if vals is None else ((vals << np.uint64(2 * width)) | piece)
        off += width
    # A window is clean iff it contains no invalid base: O(n) via a
    # running count of invalid bases instead of an O(n*k) window reduce.
    bad = np.cumsum(~valid)
    wbad = bad[k - 1 :].copy()
    wbad[1:] -= bad[: n - 1]
    return vals, wbad == 0


def base_blocks(seqs: Iterable[str], block_bases: Optional[int] = None) -> Iterator[List[str]]:
    """Consecutive runs of ``seqs``, each closed by the sequence that takes
    it to ``block_bases`` (default :data:`PACK_BLOCK_BASES`) bases."""
    limit = PACK_BLOCK_BASES if block_bases is None else block_bases
    block, n_bases = [], 0
    for seq in seqs:
        block.append(seq)
        n_bases += len(seq)
        if n_bases >= limit:
            yield block
            block, n_bases = [], 0
    if block:
        yield block


def clean_window_runs(codes: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The clean length-k windows of encoded bases, run-length encoded.

    Returns ``(run_starts, before)``: the maximal runs of ACGT begin at
    ``run_starts`` (ascending), and run ``j`` holds clean windows number
    ``before[j] .. before[j + 1] - 1`` of the whole array, one per base
    from its first.  Costs O(non-ACGT bases) memory where a per-window
    mask costs O(bases): for callers that pick a few windows per
    sequence out of a large batch.
    """
    edges = np.concatenate(([-1], np.flatnonzero(codes == 255), [codes.size]))
    run_starts = edges[:-1] + 1
    windows = np.maximum(edges[1:] - run_starts - (k - 1), 0)
    return run_starts, np.concatenate(([0], np.cumsum(windows)))


def pack_windows_at(codes: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """Pack only the length-k windows of encoded bases beginning at ``starts``.

    For callers that use a few windows per sequence (Bowtie probes
    ``n_seed_offsets`` seeds of a read's ``L - k + 1``): k passes over
    ``starts.size`` values instead of :func:`pack_windows`' passes over
    every base.  Every selected window must be clean (:func:`clean_window_runs`).
    """
    _check_k(k)
    starts = np.asarray(starts, dtype=np.intp)
    vals = np.zeros(starts.size, dtype=np.uint64)
    for j in range(k):
        vals = (vals << np.uint64(2)) | codes[starts + j]
    return vals


def kmer_array(seq: str, k: int) -> np.ndarray:
    """All k-mer codes of ``seq``, in order, as a uint64 array.

    Windows containing non-ACGT characters (e.g. ``N``) are dropped, the
    same policy Jellyfish/Inchworm use.  Returns an empty array if
    ``len(seq) < k``.
    """
    _check_k(k)
    codes = encode_bases(seq)
    if codes.size - k + 1 <= 0:
        return np.empty(0, dtype=np.uint64)
    vals, window_ok = pack_windows(codes, k)
    return vals[window_ok]


def kmer_windows_batch(
    seqs: Sequence[str], k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All k-mer codes of many sequences in one vectorised pass.

    Returns ``(codes, seq_ids, starts)``: the concatenation of every
    sequence's :func:`kmer_array` (same codes, same order), the index of
    the sequence each code came from, and the window's start base within
    that sequence (its coordinate, whether or not earlier windows were
    dropped for an ``N``).  Equivalent to calling :func:`kmer_array` per
    sequence but ~100x cheaper for chunks of short reads, because the
    encode + window pack runs once over the joined text (reads separated
    by ``N``, which invalidates the windows that would otherwise span a
    boundary).
    """
    _check_k(k)
    empty = (
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    if not seqs:
        return empty
    codes = encode_bases("N".join(seqs))
    if codes.size - k + 1 <= 0:
        return empty
    vals, window_ok = pack_windows(codes, k)
    w_idx = np.flatnonzero(window_ok)
    if w_idx.size == 0:
        return empty
    # A valid window never crosses a separator, so the sequence owning a
    # window is determined by its start offset in the joined text.
    lens = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=len(seqs))
    first = np.concatenate(([0], np.cumsum(lens[:-1] + 1)))
    seq_ids = np.searchsorted(first, w_idx, side="right") - 1
    return vals[w_idx], seq_ids, w_idx - first[seq_ids]


def kmer_arrays_batch(
    seqs: Sequence[str], k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`kmer_windows_batch` with each code's *rank* among its own
    sequence's valid windows (the enumeration per-sequence
    :func:`kmer_array` yields after dropping invalid windows) in place of
    its start base."""
    codes, seq_ids, starts = kmer_windows_batch(seqs, k)
    if codes.size == 0:
        return codes, seq_ids, starts
    # arange minus each segment's first index.
    seg = np.flatnonzero(np.concatenate(([True], seq_ids[1:] != seq_ids[:-1])))
    seg_len = np.diff(np.concatenate((seg, [codes.size])))
    positions = np.arange(codes.size, dtype=np.int64) - np.repeat(seg, seg_len)
    return codes, seq_ids, positions


def revcomp_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement packed k-mer codes, vectorised.

    Complement is bitwise NOT of each 2-bit field; reversal swaps fields —
    done in five swap-doubling passes (pairs, nibbles, bytes, halfwords,
    words) instead of k per-field passes, then a shift drops the unused
    high fields.
    """
    _check_k(k)
    x = ~np.asarray(codes, dtype=np.uint64)
    u = np.uint64
    x = ((x & u(0x3333333333333333)) << u(2)) | ((x >> u(2)) & u(0x3333333333333333))
    x = ((x & u(0x0F0F0F0F0F0F0F0F)) << u(4)) | ((x >> u(4)) & u(0x0F0F0F0F0F0F0F0F))
    x = ((x & u(0x00FF00FF00FF00FF)) << u(8)) | ((x >> u(8)) & u(0x00FF00FF00FF00FF))
    x = ((x & u(0x0000FFFF0000FFFF)) << u(16)) | ((x >> u(16)) & u(0x0000FFFF0000FFFF))
    x = (x << u(32)) | (x >> u(32))
    return x >> u(64 - 2 * k)


# Byte table: reverse the four 2-bit fields of a byte AND complement them.
# Used by the scalar fast path below (4 bases per lookup).
_RC_BYTE = [0] * 256
for _b in range(256):
    _v = 0
    for _i in range(4):
        _field = (_b >> (2 * _i)) & 0x3
        _v = (_v << 2) | (_field ^ 0x3)
    _RC_BYTE[_b] = _v


def revcomp_code(code: int, k: int) -> int:
    """Scalar reverse-complement of one packed k-mer code.

    Table-driven (4 bases per lookup), for one code at a time, where a
    vectorised call on a 1-element array costs ~100x more.  Its callers,
    through :func:`canonical_code`, are Figure 1's extension walk and the
    test oracles; array code uses :func:`revcomp_codes`.
    """
    _check_k(k)
    nbits = 2 * k
    nbytes = (nbits + 7) // 8
    out = 0
    for _ in range(nbytes):
        out = (out << 8) | _RC_BYTE[code & 0xFF]
        code >>= 8
    return out >> (8 * nbytes - nbits)


def canonical_code(code: int, k: int) -> int:
    """min(code, revcomp) — the canonical form of one packed k-mer."""
    rc = revcomp_code(code, k)
    return code if code <= rc else rc


def canonical_kmers(seq: str, k: int) -> np.ndarray:
    """Canonical (min of forward / reverse-complement) k-mer codes."""
    fwd = kmer_array(seq, k)
    return np.minimum(fwd, revcomp_codes(fwd, k))


def kmer_set(seq: str, k: int, canonical: bool = False) -> Set[int]:
    """Distinct k-mer codes of ``seq`` as a Python set of ints."""
    arr = canonical_kmers(seq, k) if canonical else kmer_array(seq, k)
    return set(arr.tolist())
