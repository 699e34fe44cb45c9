"""Property tests for the vectorised Jellyfish dump renderer
(repro.seq.kmer_index.format_counter_dump).

For every k the codec takes, sorted-unique codes and counts across every
decimal digit boundary up to ~2^62, the pieces of a split into p <= 8
static blocks (empty ones included, as on more ranks than k-mers)
concatenate to the per-record oracle's bytes, and ``read_counter_dump``
reads them back to the same table.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.chunks import static_block_ranges
from repro.seq.kmer_index import format_counter_dump, read_counter_dump
from repro.seq.kmers import MAX_K
from tests.reference_dump import counter_dump

#: 1, 9, 10, 99, 100, ... 10**18 - 1, 10**18, and 2**62.
DIGIT_EDGES = sorted({1, 2**62} | {10**d + e for d in range(1, 19) for e in (-1, 0)})


@st.composite
def dumps(draw):
    k = draw(st.integers(1, MAX_K))
    codes = sorted(draw(st.sets(st.integers(0, 4**k - 1), max_size=12)))
    count = st.one_of(st.sampled_from(DIGIT_EDGES), st.integers(1, 2**62))
    values = draw(st.lists(count, min_size=len(codes), max_size=len(codes)))
    return k, codes, values, draw(st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(dumps())
def test_block_pieces_concatenate_to_the_oracle_and_read_back(tmp_path_factory, case):
    k, codes, values, nprocs = case
    code_arr = np.array(codes, dtype=np.uint64)
    value_arr = np.array(values, dtype=np.int64)
    blocks = [slice(*static_block_ranges(len(codes), r, nprocs)) for r in range(nprocs)]
    pieces = [format_counter_dump(code_arr[b], value_arr[b], k) for b in blocks]
    assert b"".join(pieces) == counter_dump(codes, values, k)
    if codes:
        path = tmp_path_factory.mktemp("dump") / "kmers.fa"
        path.write_bytes(b"".join(pieces))
        back = read_counter_dump(path, canonical=True)
        assert back.k == k
        assert back.codes.tolist() == codes and back.values.tolist() == values
