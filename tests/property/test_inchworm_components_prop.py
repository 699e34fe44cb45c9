"""Property: both table assemblers equal the per-step Inchworm oracle.

For any k-mer table, ``inchworm_assemble`` and — over any split of the
table's k-mer-graph components over "ranks" and any thread count — the
pooled keyed contigs of one ``assemble_queue`` call per thread's
``seed_queues`` queue must re-emit the list of
``tests/reference_inchworm.py`` exactly — names, bases and coverage —
because a row holds a k-mer's candidates in the order the oracle's
comparator would try them, a greedy walk never leaves its seed's
component and a component's seed order is the global order restricted
to it.

Hand mutants of the table this file kills (each was applied to
``repro/trinity/inchworm.py`` and failed here within the 200 examples):
rows ordered by count alone, ignoring the tie hash (count ties between
candidates: repeated reads, the left fork); the reverse orientation
reusing the stored orientation's tie hashes (a fork met on the reverse
strand: canonical tables walk both); the landing orientation dropped
from the entry (any canonical walk that changes strand); ``used``
tested on the row's own slot instead of the landing's (every second
contig of a component); the reverse orientation's bases not mirrored
(``land = half``); ``chain_table``'s seed marks without their own-slot
fallback (the injected directed code).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import canonical_code, encode_kmer
from repro.seq.records import SeqRecord
from repro.trinity.inchworm import (
    InchwormConfig,
    inchworm_assemble,
    keyed_contigs,
    probe,
)
from repro.trinity.jellyfish import jellyfish_count
from repro.trinity.kmer_components import component_ids, kmer_components
from tests import reference_inchworm
from tests.inchworm_kernel import assemble_components
from tests.helpers import counter_from_dict


@st.composite
def assembly_cases(draw):
    """A tiny read set at k 5, 7 or 17 — possibly empty after filtering,
    a single k-mer, homopolymer and palindromic runs (k-mers that overlap
    themselves), one long shared sequence plus unrelated short ones (a
    giant component beside singletons), repeated reads so counts tie and
    differ — with length caps that bite in either phase, a minimum
    contig length, and strand-specific counting.  Cases the successor
    table must get right on top of that:

    * an even-k palindrome (k 6) that is its own reverse complement and,
      as a homopolymer-like ``ATATAT``, its own neighbour;
    * a fork ``aSb`` / ``rc(bSa)``: two present bases in one row with
      equal counts, one arm stored reverse-complemented, met from either
      strand (two bases of one row can never land on the *same* slot:
      ``rightext_b1(c) == rc(rightext_b2(c))`` forces ``b1 == b2``);
    * a crowded table at k 5 / 6, where most rows hold several
      candidates with tying counts;
    * a left fork at k 17, where both candidates' directed codes agree
      in their low 32 bits, so the tie hash cannot separate an equal
      count and only the base index does;
    * in a canonical table, a stored *directed* code whose canonical
      partner is absent (the seed marks' own-slot fallback).
    """
    k = draw(st.sampled_from([5, 6, 7, 17]))
    dna = lambda lo, hi: st.text(alphabet="ACGT", min_size=lo, max_size=hi)
    seqs = draw(st.lists(dna(0, 30), max_size=4))
    if draw(st.booleans()):
        seqs.append(draw(dna(k, k)))  # exactly one k-mer
    if draw(st.booleans()):
        seqs.append(draw(st.sampled_from("ACGT")) * draw(st.integers(k, k + 4)))
    if draw(st.booleans()):
        half = draw(dna(k // 2 + 1, k))
        seqs.append(half + reverse_complement(half))  # palindrome: own revcomp
    if k % 2 == 0 and draw(st.booleans()):
        seqs.append(draw(st.sampled_from(["AT", "CG", "TA", "GC"])) * (k // 2 + 1))
    if draw(st.booleans()):
        giant = draw(dna(40, 90))
        cuts = draw(st.lists(st.integers(0, len(giant) - k), min_size=1, max_size=4))
        seqs += [giant] + [giant[a : a + 3 * k] for a in cuts]
    if draw(st.booleans()):
        # One (k-1)-mer with two different bases before it (and two
        # after): equal-count forks in both directions, one arm given on
        # the other strand so its candidate lands reverse-complemented.
        core = draw(dna(k - 1, k + 6))
        a, b = draw(st.permutations("ACGT"))[:2]
        seqs += [a + core + b, reverse_complement(b + core + a)]
    if k < 7 and draw(st.booleans()):
        # Enough short reads to crowd the 4**k code space: most rows fork,
        # on both strands, with counts that tie.
        seqs += draw(st.lists(dna(k, k + 3), min_size=8, max_size=24))
    seqs += draw(st.lists(st.sampled_from(seqs), max_size=4)) if seqs else []
    solid = draw(st.sampled_from([1, 1, 2, 50]))
    cfg = InchwormConfig(
        min_contig_length=draw(st.sampled_from([0, 1, k + 2])),
        max_contig_length=draw(st.sampled_from([1, 2, k, 200_000])),
        seed=draw(st.integers(0, 5)),
    )
    reads = [SeqRecord(f"r{i}", seq) for i, seq in enumerate(seqs)]
    counts = jellyfish_count(reads, k, canonical=draw(st.booleans()))
    if counts.canonical and draw(st.booleans()):
        directed = encode_kmer(draw(dna(k, k)))
        partner = canonical_code(directed, k)
        if partner != directed and counts.get(partner) == 0:
            table = dict(zip(counts.codes.tolist(), counts.values.tolist()))
            table[directed] = draw(st.integers(1, 60))
            counts = counter_from_dict(table, k, canonical=True)
    return counts.filtered(solid), cfg


def _triples(contigs):
    return [(c.name, c.seq, repr(c.coverage)) for c in contigs]


@settings(max_examples=200, deadline=None)
@given(
    assembly_cases(),
    st.integers(1, 4),
    st.sampled_from([1, 2, 4, 8]),
    st.randoms(use_true_random=False),
)
def test_any_rank_and_thread_split_equals_serial(case, n_ranks, n_threads, rng):
    counts, cfg = case
    oracle = _triples(reference_inchworm.inchworm_assemble(counts, cfg))
    assert _triples(inchworm_assemble(counts, cfg)) == oracle
    filtered = counts
    ids = component_ids(kmer_components(len(filtered), probe(filtered)[1]))
    n_components = int(ids.max(initial=-1)) + 1
    owner = [rng.randrange(n_ranks) for _ in range(n_components)]
    pooled = []
    for rank in range(n_ranks):
        owned = [c for c in range(n_components) if owner[c] == rank]
        keyed = assemble_components(counts, cfg, n_threads, owned=owned)
        if not owned:
            assert keyed == []
        pooled += keyed
    assert _triples(keyed_contigs(pooled)) == oracle
