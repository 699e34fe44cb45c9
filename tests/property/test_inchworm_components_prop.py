"""Property: the component kernel equals the serial Inchworm loop.

For any k-mer table, any split of its k-mer-graph components over
"ranks", any thread count and any straggler row, pooling the keyed
contigs of one ``inchworm_assemble_components`` call per rank must
re-emit ``inchworm_assemble``'s list exactly — names, bases and
coverage — because a greedy walk never leaves its seed's component and
a component's seed order is the global order restricted to it.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.mpi_inchworm import _component_setup
from repro.seq.alphabet import reverse_complement
from repro.seq.records import SeqRecord
from repro.trinity import inchworm
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble, keyed_contigs
from repro.trinity.jellyfish import jellyfish_count
from tests.inchworm_kernel import assemble_components


@st.composite
def assembly_cases(draw):
    """A tiny read set at k 5 or 7 — possibly empty after filtering, a
    single k-mer, homopolymer and palindromic runs (k-mers that overlap
    themselves), one long shared sequence plus unrelated short ones (a
    giant component beside singletons), repeated reads so counts tie and
    differ — with length caps that bite in either phase, a minimum
    contig length, and strand-specific counting."""
    k = draw(st.sampled_from([5, 7]))
    dna = lambda lo, hi: st.text(alphabet="ACGT", min_size=lo, max_size=hi)
    seqs = draw(st.lists(dna(0, 30), max_size=4))
    if draw(st.booleans()):
        seqs.append(draw(dna(k, k)))  # exactly one k-mer
    if draw(st.booleans()):
        seqs.append(draw(st.sampled_from("ACGT")) * draw(st.integers(k, k + 4)))
    if draw(st.booleans()):
        half = draw(dna(k // 2 + 1, k))
        seqs.append(half + reverse_complement(half))  # palindrome: own revcomp
    if draw(st.booleans()):
        giant = draw(dna(40, 90))
        cuts = draw(st.lists(st.integers(0, len(giant) - k), min_size=1, max_size=4))
        seqs += [giant] + [giant[a : a + 3 * k] for a in cuts]
    seqs += draw(st.lists(st.sampled_from(seqs), max_size=4)) if seqs else []
    cfg = InchwormConfig(
        min_kmer_count=draw(st.sampled_from([1, 1, 2, 50])),
        min_contig_length=draw(st.sampled_from([0, 1, k + 2])),
        max_contig_length=draw(st.sampled_from([1, 2, k, 200_000])),
        seed=draw(st.integers(0, 5)),
    )
    reads = [SeqRecord(f"r{i}", seq) for i, seq in enumerate(seqs)]
    return jellyfish_count(reads, k, canonical=draw(st.booleans())), cfg


def _triples(contigs):
    return [(c.name, c.seq, c.coverage) for c in contigs]


@settings(max_examples=200, deadline=None)
@given(
    assembly_cases(),
    st.integers(1, 4),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from([1, 3, 6]),
    st.randoms(use_true_random=False),
)
def test_any_rank_and_thread_split_equals_serial(case, n_ranks, n_threads, cutoff, rng):
    # These tables have few components, so most draws lower the walker
    # count below which the kernel leaves its lockstep for the scalar
    # tail: both paths, and the hand-over between them, get exercised.
    with mock.patch.object(inchworm, "_SCALAR_CUTOFF", cutoff):
        _check_split(*case, n_ranks, n_threads, rng)


def _check_split(counts, cfg, n_ranks, n_threads, rng):
    serial = inchworm_assemble(counts, cfg)
    n_components = len(_component_setup(counts, cfg)[2])
    owner = [rng.randrange(n_ranks) for _ in range(n_components)]
    pooled, pooled_slow = [], []
    for rank in range(n_ranks):
        owned = [c for c in range(n_components) if owner[c] == rank]
        fair = assemble_components(counts, cfg, n_threads, owned=owned)
        slow = assemble_components(
            counts, cfg, n_threads,
            thread_slowdowns=[rng.choice([1.0, 2.5, 40.0]) for _ in range(n_threads)],
            owned=owned,
        )
        pooled += fair.keyed
        pooled_slow += slow.keyed
        if not owned:
            assert fair.team.makespan == 0.0 and not fair.thread_clocks.any()
    assert _triples(keyed_contigs(pooled)) == _triples(serial)
    assert pooled_slow == pooled  # stragglers move clocks, never bytes
