"""Property: the chain table and its chain-jumping walk equal the row oracle.

``chain_table`` builds links for single-candidate rows, sorts only the
fork rows and lays branch-free chains out in slots; ``walk`` jumps a
chain in one ``find``.  On any table, for every queue an 8-way component
deal gives a rank, each row read back through ``ChainTable.row`` must be
the fully sorted row of ``tests/reference_inchworm.preference_rows``,
and ``assemble_queue`` must return exactly the keyed contigs of the
per-step walk over those rows (``reference_inchworm.assemble_queue``);
pooled, they are the per-step search oracle's list.

Tables are drawn directly, so counts tie and can be zero: canonical and
strand-specific, at odd and even k (even-k palindromes, hairpins whose
chain returns on the other strand, tandem repeats whose chain is a
cycle), forks whose candidates tie on count
(the hash decides) and, at k 17, left forks whose candidates tie on the
hash too (only the base decides), at length caps 1 / 2 / 8 / 32.

Hand mutants of ``repro/trinity/inchworm.py`` this file kills within its
examples: a jump that ignores the cap (``end = hi[s]``), a jump past a
used interior slot (no ``find``), fork rows left in base order (no
``lexsort``), count ties broken by descending hash, hash ties by
descending base; a cycle cut without its mirror edge only in some runs
(``test_tandem_repeats_are_cycles_cut_into_chains`` kills it every time).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import canonical_code, encode_kmer
from repro.trinity.inchworm import (
    InchwormConfig,
    _salt,
    assemble_queue,
    chain_table,
    inchworm_assemble,
    keyed_contigs,
    neighbours,
    seed_queues,
)
from repro.trinity.jellyfish import JellyfishCounts
from repro.trinity.kmer_components import component_ids, kmer_components
from tests import reference_inchworm
from tests.helpers import counter_from_dict

DEAL = 8


@st.composite
def tables(draw):
    k = draw(st.sampled_from([5, 6, 7, 8, 17]))
    canonical = draw(st.booleans())
    dna = lambda lo, hi: st.text(alphabet="ACGT", min_size=lo, max_size=hi)
    seqs = draw(st.lists(dna(k, k + 30), min_size=1, max_size=4))
    if draw(st.booleans()):  # a hairpin: a stem, a short loop, the stem's reverse complement
        stem = draw(dna(k, 2 * k))
        seqs.append(stem + draw(dna(0, 3)) + reverse_complement(stem))
    if k % 2 == 0 and draw(st.booleans()):  # k-mers that are their own reverse complement
        half = draw(dna(k // 2, k // 2))
        seqs.append(draw(dna(0, 4)) + half + reverse_complement(half) + draw(dna(0, 4)))
    if draw(st.booleans()):  # a tandem repeat: a chain that closes on itself
        unit = draw(dna(2, 5))
        seqs.append(unit * (k // len(unit) + 3))
    for _ in range(draw(st.integers(0, 2))):  # forks both ways around one (k-1)-mer
        core = draw(dna(k - 1, k + 4))
        a, b, c, d = draw(st.permutations("ACGT"))
        seqs += [a + core + c, b + core + d]
    kmers = {encode_kmer(s[i : i + k]) for s in seqs for i in range(len(s) - k + 1)}
    if canonical:
        kmers = {canonical_code(code, k) for code in kmers}
    # Few distinct counts, zero among them: most forks tie on count.
    n = len(kmers)
    values = draw(st.lists(st.sampled_from([0, 1, 2, 2, 3]), min_size=n, max_size=n))
    counts = JellyfishCounts(
        k=k, canonical=canonical, index=counter_from_dict(dict(zip(sorted(kmers), values)), k)
    ).filtered(draw(st.sampled_from([1, 2])))
    cfg = InchwormConfig(
        min_contig_length=draw(st.sampled_from([1, k + 2])),
        max_contig_length=draw(st.sampled_from([1, 2, 8, 32])),
        seed=draw(st.integers(0, 3)),
    )
    return counts, cfg


def _triples(contigs):
    return [(c.name, c.seq, repr(c.coverage)) for c in contigs]


@settings(max_examples=150, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_chain_table_equals_the_row_oracle(case, rng):
    counts, cfg = case
    filtered = counts.index
    canonical, salt = counts.canonical, _salt(cfg)
    landing = neighbours(filtered, canonical)
    ids = component_ids(kmer_components(landing))
    owner = [rng.randrange(DEAL) for _ in range(int(ids.max(initial=-1)) + 1)]
    pooled = []
    for rank in range(DEAL):
        owned = [c for c, r in enumerate(owner) if r == rank]
        (queue,) = seed_queues(filtered, cfg, ids, [owned])
        table = chain_table(filtered, canonical, salt, landing, queue)
        rows = reference_inchworm.preference_rows(filtered, canonical, salt, landing, queue)
        for i, o, d in zip(*(a.ravel().tolist() for a in np.indices(rows.shape[:3]))):
            oracle = [x << (1 - canonical) for x in rows[i, o, d].tolist() if x >= 0]
            assert table.row(i, o, d) == oracle
        keyed = assemble_queue(filtered, canonical, cfg, landing, queue)
        assert keyed == reference_inchworm.assemble_queue(filtered, canonical, cfg, landing, queue)
        pooled += keyed
    oracle = _triples(reference_inchworm.inchworm_assemble(counts, cfg))
    assert _triples(keyed_contigs(pooled)) == oracle
    assert _triples(inchworm_assemble(counts, cfg)) == oracle
