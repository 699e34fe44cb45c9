"""Property: an owner's seed order is the global seed order restricted.

The distributed Inchworm never builds a global seed permutation:
``seed_queues`` sorts the positions a rank's threads own by (thread,
-count, tie hash, code) in one pass, and ``assemble_queue`` keys each
contig by its seed's ``(-count, tie hash, code)`` tuple.  For any table and any assignment of any subset of positions to
threads, each thread's queue must be ``_seed_order`` restricted to its
positions, and every key the comparator tuple spelled out here — so the
keyed merge re-emits the serial sequence.

Hand mutants of ``repro/trinity/inchworm.py`` this file kills: count
sorted ascending in ``_seed_keys`` (queues leave the comparator spelled
out here); the code key dropped from ``_seed_keys`` (keys no longer the
comparator tuple).  Inside a sort alone the code key is redundant:
positions ascend with code and ``np.lexsort`` is stable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.kmer_index import KmerCounter
from repro.seq.kmers import encode_kmer
from repro.trinity.inchworm import (
    InchwormConfig,
    _seed_keys,
    _seed_order,
    inchworm_assemble,
    keyed_contigs,
    neighbours,
    seed_queues,
)
from repro.trinity.jellyfish import JellyfishCounts
from repro.trinity.kmer_components import component_ids, kmer_components
from repro.util.rng import derive_seed
from tests.inchworm_kernel import assemble_components
from tests.reference_inchworm import tie_break_code
from tests.helpers import counter_from_dict


def _spelled(filtered, salt, p):
    code = int(filtered.codes[p])
    return (-int(filtered.values[p]), tie_break_code(code, salt), code)


@st.composite
def owned_tables(draw):
    """A table with tying counts, a config (its seed salts the tie hash),
    and per position its owning thread (-1: not owned by this rank)."""
    k = draw(st.sampled_from([5, 6, 7, 17]))
    codes = draw(st.sets(st.integers(0, 4**k - 1), max_size=60))
    codes = np.array(sorted(codes), dtype=np.uint64)
    values = np.array(
        draw(st.lists(st.integers(1, 4), min_size=codes.size, max_size=codes.size)),
        dtype=np.int64,
    )
    n_threads = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(-1, n_threads - 1), min_size=codes.size, max_size=codes.size))
    cfg = InchwormConfig(seed=draw(st.integers(0, 2**32 - 1)))
    return KmerCounter(k, codes, values), cfg, n_threads, owner


@settings(max_examples=150, deadline=None)
@given(owned_tables())
def test_owner_queues_are_the_seed_order_restricted(case):
    filtered, cfg, n_threads, owner = case
    salt = derive_seed(cfg.seed, "inchworm-ties")
    # Every position its own "component": any subset, any thread split.
    threads = [[p for p, t in enumerate(owner) if t == thread] for thread in range(n_threads)]
    queues = seed_queues(filtered, cfg, np.arange(len(filtered)), threads)
    perm = _seed_order(filtered, salt).tolist()
    assert len(queues) == n_threads
    for mine, queue in zip(threads, queues):
        assert queue.tolist() == [p for p in perm if p in mine]
        assert queue.tolist() == sorted(mine, key=lambda p: _spelled(filtered, salt, p))
        keys = list(zip(*(key.tolist() for key in _seed_keys(filtered, salt, queue))))
        assert keys == [_spelled(filtered, salt, p) for p in queue.tolist()]


def test_equal_count_and_tie_hash_fall_to_the_code():
    # At k 17 codes 2**32 apart share their tie hash (the multiplier is
    # odd and the hash keeps 32 bits), so with equal counts only the code
    # orders them — in the queues and in the contigs' merge keys.
    k, cfg = 17, InchwormConfig(min_contig_length=1, seed=4)
    salt = derive_seed(cfg.seed, "inchworm-ties")
    twins = [5 + j * 2**32 for j in range(3)] + [9 + j * 2**32 for j in range(2)]
    table = {code: 3 for code in twins}
    table.update({77: 3, 12345: 8, 2**33 + 1001: 1})
    counts = JellyfishCounts(k=k, canonical=False, index=counter_from_dict(table, k))
    filtered = counts.index.filtered(1)
    at = filtered.find(np.array(twins, dtype=np.uint64))[0]
    assert len({_spelled(filtered, salt, p)[:2] for p in at[:3].tolist()}) == 1
    assert len({_spelled(filtered, salt, p)[:2] for p in at[3:].tolist()}) == 1

    # Owned in reverse code order, one thread or spread over three.
    backwards = sorted(range(len(filtered)), reverse=True)
    perm = _seed_order(filtered, salt).tolist()
    for threads in ([backwards], [backwards[::3], backwards[1::3], backwards[2::3]]):
        queues = seed_queues(filtered, cfg, np.arange(len(filtered)), threads)
        for mine, queue in zip(threads, queues):
            assert queue.tolist() == [p for p in perm if p in mine]

    # Every k-mer is its own component and contig; each key is its seed's
    # comparator tuple, and ranks owning the twins in reverse order still
    # merge to the serial list.
    ids = component_ids(kmer_components(neighbours(filtered, canonical=False)))
    assert ids.tolist() == list(range(len(filtered)))
    serial = inchworm_assemble(counts, cfg)
    assert len(serial) == len(filtered)
    pooled = []
    for owned in ([p for p in backwards if p % 2], [p for p in backwards if not p % 2]):
        res = assemble_components(counts, cfg, n_threads=2, owned=owned)
        seeds = filtered.find(
            np.array([encode_kmer(seq) for _key, seq, _cov in res], dtype=np.uint64)
        )[0]
        assert [key for key, _seq, _cov in res] == [
            _spelled(filtered, salt, p) for p in seeds.tolist()
        ]
        pooled += res
    assert keyed_contigs(pooled) == serial
