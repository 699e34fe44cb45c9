"""``kmer_index.sorted_rows`` against ``np.lexsort``, the contract it keeps.

Every replicated table build and per-rank lexsort sorts its integer
columns through the one helper: packed into one ``uint64`` a row when
the keys' bit widths fit, through ``np.lexsort`` when they do not.  The
property draws columns with many ties, negative and full-range values,
mixed dtypes and empty input; the boundary cases pin widths summing to
63 and 64 bits (packed) and 65 (the fallback).

Mutants of ``repro/seq/kmer_index.py`` this file kills: the minimum
not subtracted before packing (negative keys wrap into the top bits) or
not added back after; the first key packed highest (the primary key
swapped); a width one bit short (``bit_length`` of ``high - low - 1``);
and the 64-bit bound taken as ``>= 64`` (a 64-bit row sent to the
fallback, seen by the ``np.lexsort`` spy) or as ``> 65``; and the
less-its-minimum layout never tried after the as-it-is one (two keys
near ``2**62`` sent to the fallback).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.kmer_index import sorted_rows
from tests.reference_sorts import sorted_rows as lexsorted

DTYPES = (np.int64, np.uint64, np.int32, np.bool_)


@st.composite
def columns(draw):
    n = draw(st.integers(0, 40))
    keys = [np.arange(n)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(DTYPES))
        if dtype is np.bool_:
            values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        else:
            info = np.iinfo(dtype)
            lo = draw(st.sampled_from([0, -3, int(info.min)])) if info.min < 0 else 0
            hi = draw(st.sampled_from([2, 5, int(info.max)]))
            values = draw(st.lists(st.integers(max(lo, int(info.min)), hi), min_size=n, max_size=n))
        keys.append(np.array(values, dtype=dtype))
    return keys


@settings(max_examples=400, deadline=None)
@given(columns())
def test_sorted_rows_is_lexsort(keys):
    got = sorted_rows(keys)
    for column, want, key in zip(got, lexsorted(keys), keys):
        assert column.dtype == key.dtype
        assert np.array_equal(column, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=30), st.lists(st.integers(-2, 2), max_size=30))
def test_led_by_arange_the_first_column_is_lexsort(a, b):
    n = min(len(a), len(b))
    keys = (np.array(a[:n], dtype=np.int64), np.array(b[:n], dtype=np.int64))
    order = sorted_rows((np.arange(n), *keys))[0]
    assert np.array_equal(order, np.lexsort(keys))


def _spanning(width, rng, n=64):
    """``n`` int64 values, many tied, whose range needs exactly ``width`` bits."""
    low = -(1 << (width - 2)) if width > 1 else 0
    pool = low + np.r_[0, 1 << (width - 1), rng.integers(0, 1 << (width - 1), 6)]
    return rng.permutation(np.r_[pool[:2], rng.choice(pool, n - 2)])


def test_widths_summing_to_63_and_64_pack_and_65_falls_back():
    rng = np.random.default_rng(7)
    for total, packed in ((63, True), (64, True), (65, False)):
        for keys in (
            (_spanning(total - 33, rng), _spanning(33, rng)),
            # Led by a 64-row index (6 bits): ties keep input order.
            (np.arange(64), _spanning(total - 39, rng), _spanning(33, rng)),
        ):
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
                got = sorted_rows(keys)
            assert spy.called != packed, total
            for column, want in zip(got, lexsorted(keys)):
                assert np.array_equal(column, want)


def test_empty_and_constant_columns():
    empty = sorted_rows((np.array([], dtype=np.int64), np.array([], dtype=np.uint64)))
    assert [c.size for c in empty] == [0, 0]
    assert [c.dtype for c in empty] == [np.int64, np.uint64]
    same = np.full(5, 2 ** 63 + 7, dtype=np.uint64)
    col, = sorted_rows((same,))
    assert np.array_equal(col, same)


def test_nonnegative_keys_pack_less_their_minimum_only_when_they_must():
    # As they are, two keys near 2**62 need 63 bits each; less their
    # minimum, 32 each: the rows still pack, and sort as lexsort does.
    rng = np.random.default_rng(3)
    keys = tuple(np.uint64(2**62) + rng.integers(0, 2**32, 50).astype(np.uint64) for _ in range(2))
    keys[0][:2] = (2**62, 2**62 + 2**32 - 1)
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
        got = sorted_rows(keys)
    assert not spy.called
    for column, want in zip(got, lexsorted(keys)):
        assert np.array_equal(column, want)
