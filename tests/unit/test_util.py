"""Unit tests for repro.util (rng, formatting)."""

import pytest

from repro.util.fmt import format_table, human_time
from repro.util.rng import derive_seed, spawn_rng


class TestRng:
    def test_derive_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_derive_label_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_derive_seed_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_derive_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1)

    def test_spawn_rng_streams_independent(self):
        a = spawn_rng(0, "x").random(4)
        b = spawn_rng(0, "y").random(4)
        assert not (a == b).all()

    def test_spawn_rng_reproducible(self):
        assert (spawn_rng(7, "z").random(4) == spawn_rng(7, "z").random(4)).all()


class TestFmt:
    def test_human_time_seconds(self):
        assert human_time(3.2) == "3.2 s"

    def test_human_time_minutes(self):
        assert human_time(600) == "10.0 min"

    def test_human_time_hours(self):
        assert human_time(7200) == "2.00 h"

    def test_human_time_negative_rejected(self):
        with pytest.raises(ValueError):
            human_time(-1)

    def test_table_alignment(self):
        out = format_table(["col", "x"], [["a", 1], ["bbbb", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("col")
        assert len(lines) == 4

    def test_table_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
