"""Property-based tests for the k-mer component kernel (hypothesis).

The vectorised Shiloach-Vishkin labelling must equal a naive BFS over
the same overlap edges for *any* k-mer set — random codes or the k-mer
spectrum of random DNA — in both canonical and directed mode.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import canonical_kmers
from repro.trinity.inchworm import neighbours
from repro.trinity.kmer_components import (
    component_ids,
    kmer_components,
    overlap_edges,
)
from tests.reference_components import bfs_labels as _bfs_labels

K = 6

dna = st.text(alphabet="ACGT", min_size=K, max_size=120)


def _counter_from_dna(seq: str) -> KmerCounter:
    codes, counts = np.unique(canonical_kmers(seq, K), return_counts=True)
    return KmerCounter(K, codes.astype(np.int64), counts.astype(np.int64))


@settings(max_examples=60, deadline=None)
@given(dna)
def test_labels_match_bfs_on_dna_spectra(seq):
    counter = _counter_from_dna(seq)
    landing = neighbours(counter, canonical=True)
    u, v = overlap_edges(landing)
    assert np.array_equal(kmer_components(landing), _bfs_labels(len(counter), u, v))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_labels_match_bfs_on_random_codes(seed, canonical):
    rng = np.random.default_rng(seed)
    codes = np.unique(rng.integers(0, 4**K, size=200, dtype=np.int64))
    counter = KmerCounter(K, codes, np.ones(codes.size, dtype=np.int64))
    landing = neighbours(counter, canonical)
    u, v = overlap_edges(landing)
    assert np.array_equal(kmer_components(landing), _bfs_labels(len(counter), u, v))


@settings(max_examples=60, deadline=None)
@given(dna)
def test_members_partition_positions(seq):
    counter = _counter_from_dna(seq)
    labels = kmer_components(neighbours(counter, canonical=True))
    ids = component_ids(labels)
    # Dense ids ascending by component, each labelled by its first member.
    firsts = np.flatnonzero(labels == np.arange(labels.size))
    assert np.array_equal(ids[firsts], np.arange(firsts.size))
    assert np.array_equal(firsts[ids], labels)
