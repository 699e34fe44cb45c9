"""Property-based tests for the k-mer component kernel (hypothesis).

Labels from the probe's per-block ``u < v`` edges, pooled over any
partition of the table into p = 1..8 position blocks (empty blocks
included), must equal the BFS over every landing of the whole probe
(``tests/reference_components.py``) for *any* k-mer table: the k-mer
spectrum of random DNA, canonical or strand-specific, at even k (where
palindromes land on themselves) and odd; random codes, which in a
canonical table include stored directed codes; the empty and the
one-k-mer table; and one long chain.

Hand mutants of ``repro/trinity/kmer_components.py`` this file kills
(each was applied and failed here): a block's edges taken without its
offset (``rows`` counted from 0: every block past the first joins the
wrong positions); the ``v < u`` half dropped without its mirror (a
directed code's landings below it discarded, though nothing lands back
on it); a hooking round's edges not re-pointed at their roots (the long
chain never converges: its watchdog fails it).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parallel.mpi_inchworm import component_setup
from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import canonical_kmers, kmer_array
from repro.trinity.inchworm import neighbours, probe
from repro.trinity.kmer_components import component_ids, kmer_components
from tests.reference_components import bfs_labels, landing_edges


def _counter(seq: str, k: int, canonical: bool) -> KmerCounter:
    codes = canonical_kmers(seq, k) if canonical else kmer_array(seq, k)
    codes, counts = np.unique(codes, return_counts=True)
    return KmerCounter(k, codes.astype(np.int64), counts.astype(np.int64), canonical)


def _pooled_labels(counter: KmerCounter, cuts) -> np.ndarray:
    """Labels from the edges of the probe's blocks between ``cuts``."""
    n = len(counter)
    bounds = [0, *sorted(min(c, n) for c in cuts), n]
    blocks = [probe(counter, a, b) for a, b in zip(bounds, bounds[1:])]
    edges = np.concatenate([edges for _rows, edges in blocks], axis=1)
    assert edges.dtype == np.int32 and (edges[0] < edges[1]).all()
    labels = kmer_components(n, edges)
    landing, ids, costs = component_setup(counter, blocks)
    assert np.array_equal(landing, neighbours(counter))
    assert np.array_equal(ids, component_ids(labels))
    assert costs.sum() == counter.values.sum()
    return labels


def _oracle(counter: KmerCounter) -> np.ndarray:
    return bfs_labels(len(counter), *landing_edges(neighbours(counter)))


_cuts = st.lists(st.integers(0, 400), max_size=7)


@settings(max_examples=80, deadline=None)
@given(
    st.text(alphabet="ACGT", max_size=160), st.sampled_from([5, 6, 8]), st.booleans(), _cuts
)
@example("", 6, True, [])  # the empty table
@example("ACGTAC", 6, True, [0, 1])  # one k-mer
@example("AACGCGTTACGCGT", 6, True, [3])  # even-k palindromes: ACGCGT, AACGTT
@example("TTACGTAACCGGTTAACG", 6, False, [2, 5, 9])
def test_labels_match_bfs_on_dna_spectra(seq, k, canonical, cuts):
    counter = _counter(seq, k, canonical)
    assert np.array_equal(_pooled_labels(counter, cuts), _oracle(counter))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), _cuts)
def test_labels_match_bfs_on_random_codes(seed, canonical, cuts):
    # In a canonical table, random codes are half directed: those rows'
    # landings are one-sided, and must be kept below the row too.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4, 8))
    codes = np.unique(rng.integers(0, 4**k, size=int(rng.integers(1, 300)), dtype=np.int64))
    counter = KmerCounter(k, codes, np.ones(codes.size, dtype=np.int64), canonical)
    assert np.array_equal(_pooled_labels(counter, cuts), _oracle(counter))


@pytest.mark.timeout(30)
def test_one_long_chain_over_eight_blocks():
    seq = "".join(np.random.default_rng(5).choice(list("ACGT"), size=2500).tolist())
    for canonical in (True, False):
        counter = _counter(seq, 25, canonical)
        cuts = [len(counter) * r // 8 for r in range(1, 8)]
        labels = _pooled_labels(counter, cuts)
        assert np.array_equal(labels, _oracle(counter))
        assert not labels.any()


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ACGT", min_size=6, max_size=120))
def test_members_partition_positions(seq):
    counter = _counter(seq, 6, True)
    labels = kmer_components(len(counter), probe(counter)[1])
    ids = component_ids(labels)
    # Dense ids ascending by component, each labelled by its first member.
    firsts = np.flatnonzero(labels == np.arange(labels.size))
    assert np.array_equal(ids[firsts], np.arange(firsts.size))
    assert np.array_equal(firsts[ids], labels)
