"""Shared utilities: seeded RNG helpers, table formatting."""

from repro.util.rng import spawn_rng, derive_seed
from repro.util.fmt import format_table, human_time

__all__ = [
    "spawn_rng",
    "derive_seed",
    "format_table",
    "human_time",
]
