"""Property: the batched aligner equals the scalar seed-and-extend loop.

``align_seeds`` must give, for every read and orientation, exactly the
``(contig, pos, mismatches)`` of ``tests.reference_bowtie`` — the per-read
loop it replaced — and do exactly the work that loop does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.trinity.bowtie import (
    BestHits,
    BowtieConfig,
    BowtieIndex,
    ReadSeeds,
    align_seeds,
    sam_records,
)
from tests.reference_bowtie import reference_align

SEED_LEN = 8  # the smallest BowtieConfig allows: short inputs still seed


@st.composite
def alignment_cases(draw):
    """Contigs — possibly none, possibly two sharing a repeat or one the
    reverse complement of another, possibly holding an ``N`` — and reads
    cut from them at ragged lengths (some shorter than the seed, some
    with fewer windows than ``n_seed_offsets``), reverse-complemented,
    with substitutions up to and past ``max_mismatches`` and ``N``s, plus
    a few unrelated reads."""
    dna = lambda lo, hi: st.text(alphabet="ACGT", min_size=lo, max_size=hi)
    cfg = BowtieConfig(
        seed_len=SEED_LEN,
        max_mismatches=draw(st.integers(0, 3)),
        n_seed_offsets=draw(st.integers(1, 4)),
    )
    contig_seqs = draw(st.lists(dna(20, 60), max_size=3))
    if draw(st.booleans()):  # a repeat in two contigs: reads from it tie
        repeat = draw(dna(12, 30))
        contig_seqs += [draw(dna(0, 10)) + repeat + draw(dna(0, 10)) for _ in range(2)]
    if contig_seqs and draw(st.booleans()):  # forward on one, reverse on the other
        contig_seqs.append(reverse_complement(contig_seqs[0]))
    for i, seq in enumerate(contig_seqs):
        if draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(seq) - 1))
            contig_seqs[i] = seq[:at] + "N" + seq[at + 1 :]
    reads = draw(st.lists(st.text(alphabet="ACGTN", max_size=20), max_size=2))
    for _ in range(draw(st.integers(0, 6)) if contig_seqs else 0):
        seq = draw(st.sampled_from(contig_seqs))
        a = draw(st.integers(0, len(seq) - 1))
        read = list(seq[a : a + draw(st.integers(4, 40))])
        for at in draw(st.lists(st.integers(0, len(read) - 1), max_size=5)):
            read[at] = draw(st.sampled_from("ACGTN"))
        read = "".join(read)
        reads.append(reverse_complement(read) if draw(st.booleans()) else read)
    contigs = [Contig(f"c{i}", seq) for i, seq in enumerate(contig_seqs)]
    return contigs, [SeqRecord(f"r{i}", seq) for i, seq in enumerate(reads)], cfg


def _dense(hits: BestHits, n_reads: int):
    """``BestHits`` as the reference's per-read ``(fwd, rev)`` tuples."""
    by_row = {
        row: (contig, pos, mm)
        for row, contig, pos, mm in zip(
            hits.rows.tolist(), hits.contig.tolist(), hits.pos.tolist(), hits.mm.tolist()
        )
    }
    return [(by_row.get(i), by_row.get(n_reads + i)) for i in range(n_reads)]


@settings(max_examples=150, deadline=None)
@given(alignment_cases())
def test_align_seeds_equals_scalar_reference(case):
    contigs, reads, cfg = case
    bests, records, work = reference_align(reads, contigs, cfg)
    hits = align_seeds(ReadSeeds.build(reads, cfg), BowtieIndex(contigs, cfg))
    assert _dense(hits, len(reads)) == bests
    assert (hits.n_seed_hits, hits.n_verified) == (work.n_seed_hits, work.n_verified)
    assert sam_records(reads, hits, [c.name for c in contigs]) == records


@settings(max_examples=50, deadline=None)
@given(alignment_cases(), st.integers(1, 4))
def test_target_split_partitions_the_work(case, n_pieces):
    """Any split of the contigs reduces to the single-index bests, and its
    pieces' counters sum to the single-index counters."""
    contigs, reads, cfg = case
    read_seeds = ReadSeeds.build(reads, cfg)
    whole = align_seeds(read_seeds, BowtieIndex(contigs, cfg))
    parts = []
    for piece in range(n_pieces):
        globals_ = list(range(piece, len(contigs), n_pieces))
        local = align_seeds(read_seeds, BowtieIndex([contigs[g] for g in globals_], cfg))
        parts.append((local, [globals_[c] for c in local.contig.tolist()]))
    merged = BestHits.best(
        np.concatenate([local.rows for local, _g in parts]),
        np.concatenate([np.asarray(g, dtype=np.int32) for _local, g in parts]),
        np.concatenate([local.pos for local, _g in parts]),
        np.concatenate([local.mm for local, _g in parts]),
    )
    assert _dense(merged, len(reads)) == _dense(whole, len(reads))
    assert sum(local.n_seed_hits for local, _g in parts) == whole.n_seed_hits
    assert sum(local.n_verified for local, _g in parts) == whole.n_verified
