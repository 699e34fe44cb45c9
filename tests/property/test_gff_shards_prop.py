"""Property tests for the sharded weldmer scan inside ``gff:setup``.

Each rank scans its round-robin blocks of the reads once, the partial
weldmer tables are pooled with ``allgatherv`` and summed.  Whatever the
input and the rank count, every rank must return the serial
``graph_from_fasta`` ``pairs`` and ``components``, and the merged table
must equal the serial ``build_weldmer_index`` dict as a mapping — i.e.
every read was scanned exactly once.  Generated cases are tiny and
include the degenerate shards: fewer read blocks than ranks (idle ranks
pool an empty table), zero reads, only reads shorter than the 2k window,
all-``N`` reads, and no seed shared by two contigs (the kernel's empty
early return on every rank).

Hand mutants tried against this file (each fails both tests below):

* overlapping blocks (``range(start, min(stop + 1, len(reads)))``): a read
  counted twice — the table check, on any case with two scannable reads;
* a dropped last block (``rank_items(len(reads) - 1, …)``): a read never
  counted — the table check, on any case whose last read is scannable;
* merge that overwrites instead of adds (``merged[window] = n``): the
  cases whose reads repeat across blocks; in
  ``test_support_reached_only_across_ranks`` the pair disappears at 3 and
  8 ranks;
* canonicalisation lost in the wire round-trip (table re-keyed by the
  reverse complement on unpack): the table check, on any case with a
  non-palindromic weldmer, and the same pair disappears.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import mpirun
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    build_kmer_to_contigs,
    build_weldmer_index,
    graph_from_fasta,
    shared_seed_array,
)

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
    table = build_weldmer_index(
        reads, shared_seed_array(build_kmer_to_contigs(contigs, k), cfg), cfg
    )
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
