"""Unit tests for the chunked round-robin distribution (paper Fig 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.parallel.chunks import (
    CHUNKS_TOTAL,
    chunk_ranges,
    chunk_size,
    chunks_for_rank,
    n_chunks,
    static_block_ranges,
)


class TestChunkRanges:
    def test_exact_division(self):
        assert chunk_ranges(6, 2) == [(0, 2), (2, 4), (4, 6)]

    def test_final_partial_chunk_clipped(self):
        # The paper's caveat: "the end index of the inner thread loop
        # might have to be changed depending on how many ... are left".
        assert chunk_ranges(7, 3) == [(0, 3), (3, 6), (6, 7)]

    def test_zero_items(self):
        assert chunk_ranges(0, 5) == []

    def test_chunk_bigger_than_items(self):
        assert chunk_ranges(3, 10) == [(0, 3)]

    def test_invalid_chunk_size(self):
        with pytest.raises(ScheduleError):
            chunk_ranges(5, 0)

    def test_n_chunks(self):
        assert n_chunks(10, 3) == 4
        assert n_chunks(9, 3) == 3


class TestRoundRobin:
    def test_paper_figure3_dealing(self):
        # 16 chunks over 4 ranks, as illustrated in Figure 3.
        assert chunks_for_rank(16, 0, 4) == [0, 4, 8, 12]
        assert chunks_for_rank(16, 3, 4) == [3, 7, 11, 15]

    def test_all_chunks_covered_once(self):
        total = 23
        seen = []
        for r in range(5):
            seen.extend(chunks_for_rank(total, r, 5))
        assert sorted(seen) == list(range(total))

    def test_fewer_chunks_than_ranks(self):
        assert chunks_for_rank(2, 3, 8) == []
        assert chunks_for_rank(2, 1, 8) == [1]

    def test_bad_rank_rejected(self):
        with pytest.raises(ScheduleError):
            chunks_for_rank(4, 4, 4)
        with pytest.raises(ScheduleError):
            chunks_for_rank(4, 0, 0)


class TestChunkSize:
    """The one chunk rule: GraphFromFasta's loops and the paper-scale
    replays size their chunks with :func:`chunk_size`."""

    @given(
        st.integers(0, 5_000),
        st.integers(1, 64),
        st.integers(1, 32),
        st.integers(1, 1_024),
    )
    def test_fills_teams_reaches_every_rank_and_keeps_the_floor(self, n, p, t, total):
        sizes = [b - a for a, b in chunk_ranges(n, chunk_size(n, p, t, total))]
        # Never finer than the replay's floor: ``chunks_total`` is honoured.
        assert min(sizes[:-1], default=n // total) >= n // total
        # Full teams: every chunk but the last holds a team's worth.
        if n >= p * t:
            assert min(sizes[:-1], default=t) >= t
        # Every rank gets a chunk where the floor is not what caps the
        # chunk count (below ``p`` chunks in total it must).
        if n // total <= t and total >= p:
            assert len(sizes) >= min(p, n)

    @pytest.mark.parametrize("p", [16, 32, 64, 128, 192, 1024])
    def test_paper_scale_chunks_are_the_replays(self, p):
        n = 1_100_000
        assert chunk_size(n, p, 16) == n // CHUNKS_TOTAL == 2_148

    def test_chunks_total_honoured(self):
        assert chunk_size(1_100_000, 192, 16, chunks_total=2_048) == 1_100_000 // 2_048
        assert chunk_size(1_100_000, 192, 16, chunks_total=192) == 1_100_000 // 192

    def test_whitefly_half(self):
        # 76 contigs on 16-thread teams: 19-item chunks at 1 and 4 ranks,
        # one chunk a rank (and a short ninth) at 8.
        assert [chunk_size(76, p, 16) for p in (1, 4, 8)] == [19, 19, 9]

    def test_invalid(self):
        with pytest.raises(ScheduleError):
            chunk_size(10, 0, 16)
        with pytest.raises(ScheduleError):
            chunk_size(10, 4, 16, chunks_total=0)


class TestStaticBlocks:
    def test_partition(self):
        blocks = [static_block_ranges(10, r, 3) for r in range(3)]
        assert blocks == [(0, 4), (4, 7), (7, 10)]

    def test_covers_everything(self):
        n, p = 101, 7
        covered = []
        for r in range(p):
            a, b = static_block_ranges(n, r, p)
            covered.extend(range(a, b))
        assert covered == list(range(n))

    def test_bad_rank(self):
        with pytest.raises(ScheduleError):
            static_block_ranges(10, 5, 5)
