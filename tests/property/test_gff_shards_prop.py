"""Property tests for the sharded weldmer scan inside ``gff:setup``.

Each rank scans its one block of the reads (``static_block_ranges``, as
Bowtie deals them) once, the partial weldmer tables are pooled with
``allgatherv`` and summed.  Whatever the
input and the rank count, every rank must return the serial
``graph_from_fasta`` ``pairs`` and ``components``, and the merged table
must equal the serial ``build_weldmer_index`` dict as a mapping — i.e.
every read was scanned exactly once.  Generated cases are tiny and
include the degenerate shards: fewer reads than ranks (idle ranks pool
an empty table), zero reads, only reads shorter than the 2k window,
all-``N`` reads, and no seed shared by two contigs (the kernel's empty
early return on every rank).

Hand mutants tried against this file (each fails both tests below):

* overlapping blocks (``reads[start : stop + 1]``): a read counted twice
  — the table check, on any case with two scannable reads;
* a dropped last read (``static_block_ranges(len(reads) - 1, …)``): a
  read never counted — the table check, on any case whose last read is
  scannable;
* merge that overwrites instead of adds (``merged[window] = n``): the
  cases whose reads repeat across blocks; in
  ``test_support_reached_only_across_ranks`` the pair disappears at 3 and
  8 ranks;
* canonicalisation lost in the wire round-trip (table re-keyed by the
  reverse complement on unpack): the table check, on any case with a
  non-palindromic weldmer, and the same pair disappears.

The second half holds the array kernels (``shared_seed_array``,
``scan_weldmers``) and the two loop kernels (welds and pairs of
``graph_from_fasta``) to the position-by-position oracle
``tests/reference_gff.py``: a Hypothesis property over generated
contigs (some holding an ``N``) x reads x ``min_contigs_sharing`` x
block size, the named cases of ``ORACLE_CASES``, and the oracle's
``N_CONTIG_CASES`` serial and at 1 and 3 ranks (a contig's seeds and
flanks indexed by rank among its clean windows — every cut after the
first ``N`` shifted left — dies on the first three of them and on the
property).  Hand mutants of the kernels tried against
it, and the named case that kills each (the property kills all six too):

* centre offset by one (``vals[starts + k // 2 + 1]``): ``plain`` and
  every other case that counts a weldmer;
* ``window_ok`` checked on ``hi`` only: ``n_in_right_flank`` (the
  spoiled window is counted), ``short_right_flank_then_next_read`` (a
  window running across the separator into the next read is counted)
  and ``shorter_than_2k``;
* ``hi`` and ``lo`` canonicalised independently
  (``min(hi, rc(hi)), min(lo, rc(lo))``): ``plain``,
  ``revcomp_other_read``, ``palindrome``;
* reverse-complement pair not swapped (``(rc(hi), rc(lo))``): the same
  three;
* tables overwritten instead of added (a key's last count wins):
  ``two_blocks``, ``exactly_2k_twice``, ``same_seed_twice_in_one_read``;
* contigs counted with multiplicity (every window a new holder):
  ``repeat_in_one_contig``, ``repeat_needs_a_third_contig``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.seq.kmers
from repro.mpi import mpirun
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    build_weldmer_index,
    graph_from_fasta,
    scan_weldmers,
    shared_seed_array,
    weldmer_index,
)
from tests import reference_gff

NPROCS = (1, 3, 8)
KINDS = ("mixed", "few_blocks", "zero_reads", "short_only", "all_n", "no_shared_seed")


def _dna(lo, hi):
    return st.text("ACGT", min_size=lo, max_size=hi)


@st.composite
def gff_cases(draw):
    k = draw(st.sampled_from([4, 6, 8]))
    kind = draw(st.sampled_from(KINDS))
    genome = draw(_dna(4 * k, 9 * k))
    if kind == "no_shared_seed":
        contigs = [genome]
    else:
        # Overlapping windows of one genome: neighbours share >= k + 2 bases,
        # so shared seeds exist and some have both flanks complete.
        step = draw(st.integers(k, 2 * k))
        contigs = [
            genome[a : a + step + k + 2] for a in range(0, len(genome) - k, step)
        ]
    if draw(st.booleans()):  # a caller's own contig FASTA may hold an N
        i = draw(st.integers(0, len(contigs) - 1))
        at = draw(st.integers(0, len(contigs[i])))
        contigs[i] = contigs[i][:at] + "N" + contigs[i][at:]
    scannable = st.builds(
        lambda a, n: genome[a : a + n],
        st.integers(0, len(genome) - 2 * k), st.integers(2 * k, 3 * k),
    )
    short = _dna(0, 2 * k - 1)
    all_n = st.integers(2 * k, 3 * k).map("N".__mul__)
    with_n = st.builds(
        lambda seq, at: seq[:at] + "N" + seq[at + 1 :], scannable, st.integers(0, 2 * k - 1)
    )
    mixed = st.lists(
        st.one_of(scannable, short, all_n, with_n, _dna(2 * k, 3 * k)), max_size=16
    )
    reads = {
        "zero_reads": st.just([]),
        "short_only": st.lists(short, max_size=12),
        "all_n": st.lists(all_n, min_size=1, max_size=12),
        "few_blocks": st.lists(scannable, min_size=1, max_size=2),
    }.get(kind, mixed)
    # Repeats put copies of one weldmer in different blocks, so support is
    # routinely reached only by adding counts from different ranks.
    seqs = draw(reads) * draw(st.integers(1, 3))
    return (
        k,
        [Contig(f"c{i}", s) for i, s in enumerate(contigs)],
        [SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)],
    )


def _stage_and_table(comm, inputs, config):
    """The stage's outputs plus its merged weldmer table (the cached
    ``gff:weldmers`` cell; the builder below runs only if it is missing)."""
    outputs = mpi_graph_from_fasta(comm, inputs, config).outputs

    def never_built():
        raise AssertionError("gff:weldmers was never built")

    return outputs, comm.shared("gff:weldmers", never_built)


def _check(k, contigs, reads):
    cfg = GraphFromFastaConfig(k=k)
    serial = graph_from_fasta(contigs, reads, cfg)
    table = build_weldmer_index(reads, shared_seed_array(contigs, cfg), cfg)
    for nprocs in NPROCS:
        run = mpirun(
            _stage_and_table, nprocs,
            GffInputs(contigs=contigs, reads=reads), GffStageConfig(gff=cfg, nthreads=2),
        )
        assert len(run.outputs) == nprocs
        for outputs, merged in run.outputs:
            assert outputs.pairs == serial.pairs
            assert outputs.components == serial.components
            assert merged == table
    return serial, table


@settings(max_examples=60, deadline=None)
@given(gff_cases())
def test_every_rank_returns_the_serial_result(case):
    _check(*case)


def test_support_reached_only_across_ranks():
    """Two contigs share one seed; the junction weldmer occurs in exactly
    two reads, which the one-read blocks put on two different ranks.  The
    weld needs both counts (``min_weld_read_support`` = 2)."""
    k = 6
    seed = "ACGTCA"
    a = Contig("a", "TTGGAT" + seed + "CCATTG")
    b = Contig("b", "GACTAG" + seed + "TGAACC")
    junction = "GAT" + seed + "TGA"  # a's left flank + seed + b's right flank
    reads = [SeqRecord("r0", junction), SeqRecord("r1", junction)]
    serial, table = _check(k, [a, b], reads)
    assert serial.pairs == [(0, 1)] and list(table.values()) == [2]
    assert graph_from_fasta([a, b], reads[:1], GraphFromFastaConfig(k=k)).pairs == []


# --------------------------------------------------------------------------
# The array kernels against the position-by-position oracle
# --------------------------------------------------------------------------


def _assert_kernels_equal_oracle(k, contigs, reads, min_contigs_sharing=2, block_bases=None):
    cfg = GraphFromFastaConfig(k=k, min_contigs_sharing=min_contigs_sharing)
    shared = shared_seed_array(contigs, cfg)
    assert shared.tolist() == sorted(reference_gff.shared_seed_codes(contigs, cfg))
    with pytest.MonkeyPatch.context() as patch:
        if block_bases is not None:
            patch.setattr(repro.seq.kmers, "PACK_BLOCK_BASES", block_bases)
        hi, lo, counts = scan_weldmers(reads, shared, cfg)
    # Distinct, ascending in string order, every count a real occurrence.
    keys = list(zip(hi.tolist(), lo.tolist()))
    assert keys == sorted(set(keys)) and (counts > 0).all()
    table = weldmer_index((hi, lo, counts), k)
    assert list(table) == sorted(table)
    assert table == reference_gff.build_weldmer_index(reads, set(shared.tolist()), cfg)
    # Loops 1 and 2: a seed is where its window starts, N or no N before it.
    serial = graph_from_fasta(contigs, reads, cfg)
    assert serial.welds == reference_gff.harvest_welds(contigs, set(shared.tolist()), cfg)
    assert serial.pairs == reference_gff.weld_pairs(contigs, serial.welds, table, cfg)
    return shared, table


@st.composite
def oracle_cases(draw):
    k, contigs, reads = draw(gff_cases())
    seqs = [r.seq for r in reads]
    if seqs and draw(st.booleans()):
        # The same windows from the other strand, in lower case, cut to
        # exactly 2k, or twice in one read.
        extra = draw(st.lists(st.sampled_from(seqs), max_size=6))
        how = st.sampled_from([reverse_complement, str.lower, lambda s: s[: 2 * k], lambda s: s + s])
        seqs += [draw(how)(s) for s in extra]
    if draw(st.booleans()):
        # A k-mer repeated inside one contig, and a third holder of it.
        seq = contigs[0].seq
        contigs = contigs + [Contig("rep", seq[:k] + draw(_dna(0, 3)) + seq[:k])]
    return (
        k, contigs, [SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)],
        draw(st.sampled_from([1, 2, 3])),
        draw(st.sampled_from([None, 1, 2 * k, 5 * k])),
    )


@settings(max_examples=120, deadline=None)
@given(oracle_cases())
def test_kernels_equal_the_oracle(case):
    _assert_kernels_equal_oracle(*case)


_K = 6
# Two contigs sharing one seed, and a's left flank + seed + b's right flank.
_SEED, _A, _B, _JUNCTION = (
    reference_gff._SEED, reference_gff._A, reference_gff._B, reference_gff._JUNCTION
)
_PAL_HALF = "TTGACA"  # its reverse complement TGTCAA sorts first
_PAL = _PAL_HALF + reverse_complement(_PAL_HALF)

#: name -> (contigs, reads, min_contigs_sharing, block_bases, expected table)
ORACLE_CASES = {
    "plain": ([_A, _B], [_JUNCTION], 2, None, {_JUNCTION: 1}),
    "zero_reads": ([_A, _B], [], 2, None, {}),
    "empty_seed_array": ([_A], [_A], 2, None, {}),
    "shorter_than_2k": ([_A, _B], [_JUNCTION[:-1], "", "ACG"], 2, None, {}),
    "exactly_2k_twice": ([_A, _B], [_JUNCTION, _JUNCTION], 2, None, {_JUNCTION: 2}),
    "n_before": ([_A, _B], ["CNA" + _JUNCTION], 2, None, {_JUNCTION: 1}),
    "n_after": ([_A, _B], [_JUNCTION + "ANC"], 2, None, {_JUNCTION: 1}),
    "n_in_left_flank": ([_A, _B], ["GNT" + _SEED + "TGA"], 2, None, {}),
    "n_in_seed": ([_A, _B], ["GATACNTCATGA"], 2, None, {}),
    "n_in_right_flank": ([_A, _B], ["GAT" + _SEED + "TGN"], 2, None, {}),
    "short_right_flank_then_next_read": (
        [_A, _B], ["GAT" + _SEED + "T", "ACCGGTACCGGT"], 2, None, {},
    ),
    "lower_case": ([_A, _B], [_JUNCTION.lower()], 2, None, {_JUNCTION: 1}),
    "revcomp_other_read": (
        [_A, _B], [_JUNCTION, reverse_complement(_JUNCTION)], 2, None, {_JUNCTION: 2},
    ),
    "palindrome": (
        ["GG" + _PAL[3:9] + "CC", "AT" + _PAL[3:9] + "TA"], [_PAL], 2, None, {_PAL: 1},
    ),
    "same_seed_twice_in_one_read": (
        [_A, _B], [_JUNCTION + "C" + _JUNCTION], 2, None, {_JUNCTION: 2},
    ),
    "two_blocks": ([_A, _B], [_JUNCTION, _JUNCTION, _JUNCTION], 2, 1, {_JUNCTION: 3}),
    "repeat_in_one_contig": ([_SEED + "T" + _SEED, "GGCCGGCC"], [_JUNCTION], 2, None, {}),
    "repeat_needs_a_third_contig": ([_A + _SEED, _B], [_JUNCTION], 3, None, {}),
    "three_contigs_share": ([_A, _B, "C" + _SEED + "G"], [_JUNCTION], 3, None, {_JUNCTION: 1}),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_kernels_equal_the_oracle_on_named_cases(name):
    contigs, reads, sharing, block_bases, expected = ORACLE_CASES[name]
    _shared, table = _assert_kernels_equal_oracle(
        _K,
        [Contig(f"c{i}", s) for i, s in enumerate(contigs)],
        [SeqRecord(f"r{i}", s) for i, s in enumerate(reads)],
        sharing, block_bases,
    )
    assert table == {reference_gff.canonical_weldmer(w): n for w, n in expected.items()}


@pytest.mark.parametrize("name", sorted(reference_gff.N_CONTIG_CASES))
def test_contig_n_shifts_no_seed_and_no_flank(name):
    """An ``N`` in a contig drops the windows that hold it and moves no
    other: every weld's ``seed`` string is the one ``seed_code`` decodes
    to (or its reverse complement), serial and at 1 and 3 ranks."""
    contigs, reads, pairs = reference_gff.N_CONTIG_CASES[name]
    contigs = [Contig(f"c{i}", s) for i, s in enumerate(contigs)]
    reads = [SeqRecord(f"r{i}", s) for i, s in enumerate(reads)]
    _assert_kernels_equal_oracle(_K, contigs, reads)
    serial = graph_from_fasta(contigs, reads, GraphFromFastaConfig(k=_K))
    assert serial.pairs == pairs
    for weld in serial.welds:
        assert reference_gff.canonical_seed_code(weld.seed) == weld.seed_code
    for nprocs in (1, 3):
        run = mpirun(
            mpi_graph_from_fasta, nprocs, GffInputs(contigs=contigs, reads=reads),
            GffStageConfig(gff=GraphFromFastaConfig(k=_K), nthreads=2),
        )
        for out in run.outputs:
            assert sorted(out.outputs.welds, key=lambda w: (w.owner, w.seed_code)) == serial.welds
            assert out.outputs.pairs == pairs
