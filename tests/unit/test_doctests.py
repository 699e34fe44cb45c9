"""Run the doctest examples embedded in public docstrings."""

import doctest

import pytest

import repro.seq.kmers
import repro.seq.alphabet
import repro.seq.stats
import repro.util.fmt

MODULES = [
    repro.seq.kmers,
    repro.seq.alphabet,
    repro.seq.stats,
    repro.util.fmt,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
