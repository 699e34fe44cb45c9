"""Property: the batched aligner equals the scalar seed-and-extend loop.

``align_seeds`` must give, for every read and orientation, exactly the
``(contig, pos, mismatches)`` of ``tests.reference_bowtie`` — the per-read
loop it replaced — and do exactly the work that loop does; and the stage
that builds, probes and renders per read block (``mpi_bowtie``: ``p``
read blocks x ``p`` target pieces) must give ``bowtie_align``'s records,
one for one.

Hand mutants tried against the read-block half (each restored
afterwards; the stage's die in
``test_read_blocks_by_target_pieces_equal_serial``, the table's in
``test_stitched_blocks_are_the_library_table`` and
``test_align_seeds_equals_scalar_reference``):

* reverse-row base taken from the block instead of the library
  (``ReadSeeds.stitch``: reverse rows shifted by ``n_b``, not ``n - n_b``;
  the owner's ``rows >= hi - lo``; the router's ``rows % (hi - lo)``): a
  reverse hit lands on another read's forward row, or on no rank's;
* ``best`` taken before routing (the sender picks each read's orientation
  and ships one row): a read whose forward best in one piece loses to its
  reverse best in another;
* block order lost in the ``allgather`` (records concatenated in arrival
  order of a dict, or reversed): any case with two mapped reads;
* read seeds left unsorted in a block (``build`` without its ``argsort``):
  the inverted probe's ``searchsorted`` misses seeds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import mpirun
from repro.parallel.chunks import static_block_ranges
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieStageConfig, mpi_bowtie
from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.seq.sam import FLAG_REVERSE
from repro.trinity.bowtie import (
    BestHits,
    BowtieConfig,
    BowtieIndex,
    ReadSeeds,
    align_seeds,
)
from tests.helpers import bowtie_align, sam_records
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


def _blocks(reads, n_blocks):
    return [
        reads[slice(*static_block_ranges(len(reads), b, n_blocks))] for b in range(n_blocks)
    ]


@settings(max_examples=100, deadline=None)
@given(alignment_cases(), st.integers(1, 5))
def test_stitched_blocks_are_the_library_table(case, n_blocks):
    """Block tables stitched == the table built over all the reads: the
    same rows (bytes, lengths), the same seeds up to the order of equal
    codes, sorted — and the same alignment, counters included."""
    contigs, reads, cfg = case
    whole = ReadSeeds.build(reads, cfg)
    stitched = ReadSeeds.stitch([ReadSeeds.build(block, cfg) for block in _blocks(reads, n_blocks)])
    assert (stitched.n_reads, stitched.seed_len) == (whole.n_reads, whole.seed_len)
    assert stitched.lengths.tolist() == whole.lengths.tolist()
    row_bytes = lambda t: [
        t.text[a : a + n].tobytes() for a, n in zip(t.starts.tolist(), t.lengths.tolist())
    ]
    assert row_bytes(stitched) == row_bytes(whole)
    seeds = lambda t: sorted(
        zip(t.seed_codes.tolist(), t.seed_rows.tolist(), t.seed_offsets.tolist())
    )
    assert seeds(stitched) == seeds(whole)
    assert (np.diff(stitched.seed_codes.astype(object)) >= 0).all()
    index = BowtieIndex(contigs, cfg)
    a, b = align_seeds(stitched, index), align_seeds(whole, index)
    assert _dense(a, len(reads)) == _dense(b, len(reads))
    assert (a.n_seed_lookups, a.n_seed_hits, a.n_verified) == (
        b.n_seed_lookups, b.n_seed_hits, b.n_verified,
    )


@settings(max_examples=60, deadline=None)
@given(alignment_cases(), st.integers(1, 5))
def test_read_blocks_by_target_pieces_equal_serial(case, nprocs):
    """``nprocs`` read blocks x ``nprocs`` target pieces (fewer reads than
    blocks, no reads, no contigs, reverse-only hits and cross-piece ties
    included): every rank returns ``bowtie_align``'s records, and the
    pieces' work sums to the single-index run's."""
    contigs, reads, cfg = case
    serial = bowtie_align(reads, contigs, cfg)
    whole = align_seeds(ReadSeeds.build(reads, cfg), BowtieIndex(contigs, cfg))
    run = mpirun(
        mpi_bowtie, nprocs, BowtieInputs(reads=reads, contigs=contigs),
        BowtieStageConfig(bowtie=cfg),
    )
    assert all(out.records == serial for out in run.outputs)
    total = lambda name: sum(out.metrics[name] for out in run.outputs)
    assert (total("n_seed_hits"), total("n_verified")) == (whole.n_seed_hits, whole.n_verified)
    assert total("n_block_reads") == len(reads)
    assert total("n_seed_lookups") >= whole.n_seed_lookups
    assert total("n_rows_routed") >= whole.rows.size


def test_reverse_only_hit_and_a_tie_across_pieces():
    """Read 0 maps only as its reverse complement; read 1 sits in a repeat
    two contigs (two pieces at 2 and 3 ranks) hold at the same mismatch
    count — the lower contig index wins wherever the bests met."""
    repeat = "ACGGTCATTGCAAGCTTGACCTAGGATC"
    contigs = [
        Contig("c0", "TTGACCA" + repeat + "GGTACAT"),
        Contig("c1", "GCA" + repeat + "TTAGC"),
        Contig("c2", "CATCGATTTGACGGATACCGATTGAC"),
    ]
    reads = [
        SeqRecord("rev", reverse_complement(contigs[2].seq[2:24])),
        SeqRecord("tie", repeat[3:25]),
    ]
    cfg = BowtieConfig(seed_len=SEED_LEN)
    serial = bowtie_align(reads, contigs, cfg)
    assert [(r.rname, bool(r.flag & FLAG_REVERSE)) for r in serial] == [
        ("c2", True), ("c0", False)
    ]
    for nprocs in (1, 2, 3, 5):
        run = mpirun(
            mpi_bowtie, nprocs, BowtieInputs(reads=reads, contigs=contigs),
            BowtieStageConfig(bowtie=cfg),
        )
        assert all(out.records == serial for out in run.outputs)
