"""Property: the array-backed Chrysalis back end — the two-array de Bruijn
graph, the packed-once QuantifyGraph and the Butterfly walk over integer
rows — equals the string-keyed code it replaced
(``tests.reference_chrysalis``).

* ``fasta_to_debruijn`` / ``add_kmers`` against the dict-of-dicts graph,
  as the mapping ``(u, v) -> w``, plus ``sources()``, ``unitigs()`` and
  the node set.
* ``quantify_component`` twice on every case: against a string-only
  statement of its contract (orientation by distinct-node vote against
  the pre-threading graph, forward on ties; a k-mer window is an edge
  unless it holds a non-ACGT base or fails the solid filter; ``n_reads``
  counts reads with a clean window), and — wherever the old loop is
  defined and agrees with that contract, i.e. on ``N``-free reads —
  against the old loop itself.  The component under test always sits in a
  pack between two neighbours (one with reads of its own, one with none),
  and the pack is cut at 1 to 4 096 bases, so slices and blocks fall
  everywhere.
* ``count_block`` + ``pool_blocks`` — what the fused back end runs per
  (component, read block) unit and per owner — over *any* cut of a
  component's reads into blocks (empty blocks, one read per block, the
  blocks packed in any order, their tables pooled in any order): the
  same contract, the same old loop, and weights equal to the one-block
  ``quantify_component``'s to the byte.
* ``butterfly_component`` — the run walk — against the per-node walk
  over the same integer rows (``ref.butterfly_rows``) and both dict-graph
  walks (the in-place ``dfs_in_place`` and the copying ``dfs``) on the
  ordered ``(name, seq)`` list, at four salts; and again on long runs
  that every shape a run meets cuts (entered mid-run through a branch
  edge, two runs merging, a cycle closing into a run's middle, a run
  ending at a repeat, a later walk jumping onto its own path) with caps
  anywhere along them.
* ``reverse_votes``, which searches its windows sorted, against the
  search in window order (``ref.reverse_votes_unsorted``).

Assertions that moved here from the unit files when the graph stopped
being a dict: ``test_debruijn.py``'s ``(bulk.edges, bulk._in_edges) ==
(g.edges, g._in_edges)`` pairs and ``test_quantify.py``'s
``graphs[0]._in_edges == want._in_edges`` (predecessor sets are derived
from the edge codes now — ``test_graph_equals_dict_graph`` checks them as
``sources()`` and in-degrees), and ``test_mpi_chrysalis_backend.py``'s
``butterfly._dfs = ref.dfs`` monkeypatch (the oracle walks its own graph).

Hand mutants tried against this file (each restored afterwards), and the
test that fails:

* vote tie -> reverse wins (``votes[1] >= votes[0]``):
  ``test_quantify_component_equals_contract_and_oracle``
* non-distinct vote (every hit counted, ``first`` mask dropped): same
  test, through the stutter read (and
  ``test_orient.py::TestBestOrientation::test_repeated_node_votes_once``)
* vote against post-threading nodes (``graph.nodes()`` read after the
  merge of a first half of the reads): same test, through the unrelated
  read routed on both strands
* un-canonicalised solid lookup (``solid.contains(kmer)``): same test
* k codes shifted from the wrong window (``node[at + 1] << 2``):
  ``test_quantify_component_equals_contract_and_oracle`` and every named
  quantify case
* ``base[w + k - 1]`` validity dropped (``kmer_ok = node_ok[:-1]``):
  ``test_n_dirties_only_the_k_window`` (an ``N``-closed window threads an
  ``A``), ``test_last_window_of_a_slice_stays_home`` (a k-mer spans the
  separator into the next read)
* a component's slice one window long (``at[stop] + 1``):
  ``test_last_window_of_a_slice_stays_home``,
  ``test_zero_read_component_between_two``
* a block voted after an earlier block was threaded (``count_block``
  lands its own table and ``pool_blocks`` only sums the stats):
  ``test_pooled_blocks_equal_contract_whatever_the_cut``, through the
  unrelated read routed on both strands
* ``has_kmer`` counted once per block (``pack.has_kmer[first:stop].any()``):
  same test (any block of two threadable reads), and
  ``test_blocks_of_one_component_across_two_packs``
* block tables pooled in floating point (``counts / counts.sum()`` shares
  re-scaled at the owner, or ``float32`` counts): same test — the counts
  must be integers, which is what makes the pooled weights independent
  of block order to the byte
* solid filter applied on one strand (``solid.contains(kmer)``): same
  test, and the one-block test above
* floor taken after the on-path filter (``strongest`` over off-path
  siblings only, i.e. computed in the walk): ``test_walk_equals_copying_dfs``
  and ``test_floor_counts_on_path_siblings``
* tie-break on code instead of ``crc32 ^ salt`` (key ``(-w, name)``):
  ``test_tied_siblings_follow_the_salt``, ``test_walk_equals_copying_dfs``
* in-degree over surviving edges only (``bincount(dst[alive])`` for
  ``sources``): ``test_walk_equals_copying_dfs`` at ``fraction`` 0.3 / 1.0,
  ``test_sources_count_pruned_edges``
* merge overwriting instead of summing (``weights[edge] = ...``):
  ``test_graph_equals_dict_graph``, ``test_duplicate_contigs_sum``
* in-place run skipping the ``on_path`` test: ``test_walk_equals_copying_dfs``
  (cyclic graphs: the walk no longer terminates a path at a repeat node)
* ``max_paths`` re-check dropped (``while stack:``): ``test_walk_equals_copying_dfs``
  at ``max_paths_per_component`` 1 and 2
* a jump that skips the on-path ``find`` (``hit = -1``):
  ``test_walk_equals_copying_dfs``, ``test_run_walk_equals_rows_oracle``,
  ``test_run_walk_on_named_shapes`` [cycle into mid-run, run ends at a
  repeat, jump onto the path]
* the cap off by one (``s + limit - size``): ``test_walk_equals_copying_dfs``,
  ``test_run_walk_equals_rows_oracle`` and every named shape
* a sibling sharing its parent's ``on_path`` or ``runs`` (no copy at the
  branch): the same two tests and two named shapes or more
* branch successors not filtered by ``on_path`` (the path then ends on
  its strongest sibling): ``test_floor_counts_on_path_siblings`` at one
  path, ``test_run_walk_equals_rows_oracle``
* later runs spelled from their second slot (``tails[a + 1 : b]``, the
  head whole): the same two tests and four named shapes
* vote positions left in sorted order (``pos[:] = ...`` for
  ``pos[order] = ...``): ``test_sorted_vote_equals_unsorted_search``
  (and ``test_quantify_component_equals_contract_and_oracle``)
* canonical solid lookup in a strand-specific table (``np.minimum(kmer,
  kmer_rev)`` whatever ``solid.canonical``):
  ``test_quantify_component_equals_contract_and_oracle``
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq import kmers
from repro.seq.alphabet import reverse_complement
from repro.seq.kmer_index import KmerCounter, decode_kmers
from repro.seq.records import SeqRecord
from repro.trinity import butterfly
from repro.trinity.butterfly import ButterflyConfig, butterfly_component
from repro.trinity.chrysalis.debruijn import DeBruijnGraph, fasta_to_debruijn
from repro.trinity.chrysalis.orient import orient_component, reverse_votes
from repro.trinity.chrysalis.quantify import (
    count_block,
    pack_routed_reads,
    pool_blocks,
    quantify_component,
)
from tests import reference_chrysalis as ref
from tests.graph_view import source_strings, thread, weighted_graph
from tests.helpers import counter_from_reads


def dna(lo, hi, alphabet="ACGT"):
    return st.text(alphabet=alphabet, min_size=lo, max_size=hi)


def transcripts(found):
    return [(t.name, t.seq) for t in found]


@contextmanager
def block_bases(n):
    """``PACK_BLOCK_BASES`` patched to ``n`` inside the ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kmers, "PACK_BLOCK_BASES", n)
        yield


def quantify_between_neighbours(cid, graph, seqs, solid, left=("ACGTACGTTGCA",), right=()):
    """``quantify_component`` for ``seqs``, packed between a component of
    ``left`` reads and one of ``right`` reads: a slice off by one window
    or one read in either direction reads a neighbour's."""
    reads = [SeqRecord(f"r{i}", s) for i, s in enumerate((*left, *seqs, *right))]
    a, b = len(left), len(left) + len(seqs)
    routed = {cid - 1: range(a), cid: range(a, b), cid + 1: range(b, len(reads))}
    return quantify_component(cid, graph, pack_routed_reads(reads, routed, graph.k, solid))


# -- the graph ----------------------------------------------------------------


@st.composite
def weighted_sequences(draw):
    """``(k, [(sequence, weight)])`` at k=5 (256 possible nodes, so random
    sequences collide into branches and cycles): a backbone and variants of
    it (a substitution: a diamond; a deletion: a skip edge), each threaded
    at a weight from a small set so siblings often tie; extra sequences —
    some shorter than k, some duplicates — give several sources, a
    rotation-closed one gives a source-less cycle, a homopolymer a
    self-loop, a half + its reverse complement a palindromic node."""
    k = 5
    weights = st.sampled_from([1.0, 1.0, 2.0, 5.0])
    seqs = []
    if draw(st.integers(0, 4)) == 0:  # every node has a predecessor
        ring = draw(dna(6, 14))
        seqs.append((ring + ring[: k - 1], draw(weights)))
        if draw(st.booleans()):
            return k, seqs
    backbone = draw(dna(8, 30))
    seqs.append((backbone, draw(weights)))
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.integers(1, len(backbone) - 2))
        b = draw(st.integers(a, min(a + 6, len(backbone) - 1)))
        seqs.append((backbone[:a] + draw(dna(0, 3)) + backbone[b:], draw(weights)))
    for extra in draw(st.lists(dna(0, 20), max_size=2)):
        seqs.append((extra, draw(weights)))
    if draw(st.booleans()):
        seqs.append((draw(st.sampled_from("ACGT")) * draw(st.integers(k, k + 2)), draw(weights)))
    if draw(st.booleans()):
        half = draw(dna(2, 2))
        seqs.append((draw(dna(2, 5)) + half + reverse_complement(half) + draw(dna(2, 5)), 1.0))
    if draw(st.booleans()):
        seqs.append(draw(st.sampled_from(seqs)))
    return k, seqs


def both_graphs(k, seqs):
    got, want = DeBruijnGraph(k=k), ref.DeBruijnGraph(k=k)
    for seq, weight in seqs:
        thread(got, seq, weight)
        want.add_sequence(seq, weight)
    return got, want


@settings(max_examples=200, deadline=None)
@given(weighted_sequences())
def test_graph_equals_dict_graph(case):
    k, seqs = case
    got, want = both_graphs(k, seqs)
    assert got.edge_weights() == ref.edge_weights(want)
    assert (got.n_nodes, got.n_edges) == (want.n_nodes, want.n_edges)
    assert got.weights.sum() == want.total_weight()
    assert decode_kmers(got.nodes(), k - 1) == sorted(want.edges)
    assert source_strings(got) == want.sources()
    assert got.unitigs() == want.unitigs()
    nodes, src, dst = got.rows()
    assert nodes.tolist() == got.nodes().tolist()
    names = decode_kmers(nodes, k - 1)
    assert np.bincount(dst, minlength=nodes.size).tolist() == [want.in_degree(n) for n in names]
    assert np.bincount(src, minlength=nodes.size).tolist() == [want.out_degree(n) for n in names]
    # Unweighted contigs: one counting pass builds the same graph.
    plain = [seq for seq, _w in seqs]
    assert fasta_to_debruijn(plain, k).edge_weights() == ref.edge_weights(
        ref.fasta_to_debruijn(plain, k)
    )


def test_duplicate_contigs_sum():
    got = fasta_to_debruijn(["ACGTACG", "ACGTACG", "GTACG"], 4)
    assert got.edge_weights() == ref.edge_weights(
        ref.fasta_to_debruijn(["ACGTACG", "ACGTACG", "GTACG"], 4)
    )
    assert got.edge_weights()[("TAC", "ACG")] == 3.0
    thread(got, "GTACG", 2.0)
    assert got.edge_weights()[("TAC", "ACG")] == 5.0


def test_contig_shorter_than_k_adds_nothing():
    assert fasta_to_debruijn(["ACGT", "", "AC"], 5).n_edges == 0
    got = fasta_to_debruijn(["ACGT", "TTGCAAT"], 5)
    assert got.edge_weights() == ref.edge_weights(ref.fasta_to_debruijn(["TTGCAAT"], 5))


def test_self_loop_and_palindromic_node():
    seqs = ["CCAAAAAAGG", "GGACGTCC"]  # AAAA -> AAAA; ACGT is its own reverse complement
    got, want = fasta_to_debruijn(seqs, 5), ref.fasta_to_debruijn(seqs, 5)
    assert got.edge_weights() == ref.edge_weights(want)
    assert got.edge_weights()[("AAAA", "AAAA")] == 2.0
    assert got.unitigs() == want.unitigs()
    cfg = ButterflyConfig(min_transcript_length=1)
    assert transcripts(butterfly_component(0, got, cfg)) == transcripts(
        ref.butterfly_component(0, want, cfg)
    )


# -- QuantifyGraph ------------------------------------------------------------


@st.composite
def components(draw):
    """One component at a small k: contigs (some sharing a repeat, holding
    a palindromic node or a cycle, members on either strand), its routed
    reads (cut from the contigs at ragged lengths — some shorter than k —
    on either strand, with substitutions and ``N``s, duplicated, plus
    unrelated reads routed on *both* strands; possibly none), and a solid
    index that is present, empty or absent.  Low-complexity cases (two
    letters; a stutter read) make reads repeat nodes, which is where a
    distinct-node vote and a per-window vote part."""
    k = draw(st.sampled_from([5, 7, 9]))
    letters = draw(st.sampled_from(["ACGT", "ACGT", "AT"]))
    contigs = draw(st.lists(dna(k, 50, letters), min_size=1, max_size=3))
    if draw(st.booleans()):  # a repeat shared by two contigs: a branch
        repeat = draw(dna(k, 2 * k))
        contigs += [draw(dna(0, 8)) + repeat + draw(dna(0, 8)) for _ in range(2)]
    if draw(st.booleans()):  # a palindromic (k-1)-mer node
        half = draw(dna((k - 1) // 2, (k - 1) // 2))
        contigs[0] += half + reverse_complement(half) + draw(dna(0, 6))
    if draw(st.booleans()):  # the same k-mers twice in one contig: a cycle
        unit = draw(dna(k, k + 6))
        contigs.append(unit + draw(dna(0, 3)) + unit)
    reads = draw(st.lists(st.text(alphabet="ACGTN", max_size=2 * k), max_size=2))
    if draw(st.booleans()):  # a stutter read: forward it hits one or two
        # nodes five times over, reversed it hits three nodes once each
        stutter = (draw(dna(1, 2, letters)) * k)[: k + 3]
        tail = draw(dna(k + 1, k + 1))
        contigs[0] += stutter
        contigs.append(reverse_complement(tail))
        reads.append(stutter + tail)
    members = [reverse_complement(c) if draw(st.booleans()) else c for c in contigs]

    for _ in range(draw(st.integers(0, 8))):
        src = draw(st.sampled_from(contigs))
        a = draw(st.integers(0, len(src) - 1))
        read = list(src[a : a + draw(st.integers(k - 2, 40))])
        for at in draw(st.lists(st.integers(0, len(read) - 1), max_size=3)):
            read[at] = draw(st.sampled_from("ACGTN"))
        read = "".join(read)
        reads.append(reverse_complement(read) if draw(st.booleans()) else read)
    for novel in draw(st.lists(dna(k, 3 * k, letters), max_size=2)):
        reads += [novel, reverse_complement(novel)]
    reads += draw(st.lists(st.sampled_from(reads), max_size=3)) if reads else []
    reads = draw(st.permutations(reads))

    solid_kind = draw(st.sampled_from(["present", "empty", "absent"]))
    canonical = draw(st.booleans())  # the solid table's strand mode
    solid = None
    if solid_kind == "present":
        clean = [s for s in (*contigs, *reads) if "N" not in s]
        solid = counter_from_reads(clean, k, canonical).filtered(draw(st.integers(1, 2)))
    elif solid_kind == "empty":
        solid = KmerCounter.empty(k, canonical)
    return k, members, list(reads), solid


def contract_quantify(graph, seqs, solid):
    """The kernel's contract in strings, on the dict graph: returns
    ``(n_reads, weight)``.  A window threads if ``solid`` holds its k-mer:
    canonicalised, or in a strand-specific table as the read has it."""
    k = graph.k
    solid_kmers = None if solid is None else set(decode_kmers(solid.codes, k))
    node_set = set(graph.edges)
    n_reads, weight = 0, 0.0
    for seq in seqs:
        oriented = ref.best_orientation(seq, node_set, k)
        clean = [
            oriented[i : i + k]
            for i in range(len(oriented) - k + 1)
            if set(oriented[i : i + k]) <= set("ACGT")
        ]
        n_reads += bool(clean)
        for kmer in clean:
            rc = reverse_complement(kmer)
            stored = min(kmer, rc) if solid and solid.canonical else kmer if oriented == seq else rc
            if solid_kmers is None or stored in solid_kmers:
                graph._add_edge(kmer[:-1], kmer[1:], 1.0)
                weight += 1.0
    return n_reads, weight


@settings(max_examples=200, deadline=None)
@given(
    components(),
    st.sampled_from([1, 7, 40, 4096]),
    st.lists(st.text(alphabet="ACGTN", max_size=12), max_size=2),
)
def test_quantify_component_equals_contract_and_oracle(case, block, right):
    k, members, seqs, solid = case
    oriented = orient_component(members, k - 1)

    got_graph = fasta_to_debruijn(oriented, k)
    # The pack is cut in blocks of reads; no result may depend on where
    # the block boundaries fall.
    with block_bases(block):
        got = quantify_between_neighbours(3, got_graph, seqs, solid, right=right)
    assert got.component == 3 and got.graph is got_graph

    want_graph = ref.fasta_to_debruijn(oriented, k)
    n_reads, weight = contract_quantify(want_graph, seqs, solid)
    assert got_graph.edge_weights() == ref.edge_weights(want_graph)
    assert (got.n_reads, got.read_edge_weight) == (n_reads, weight)

    if not any("N" in s for s in seqs):
        old_graph = ref.fasta_to_debruijn(oriented, k)
        reads = [SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)]
        old = ref.quantify_component(3, old_graph, reads, range(len(reads)), solid=solid)
        assert got_graph.edge_weights() == ref.edge_weights(old_graph)
        assert got.read_edge_weight == old.read_edge_weight
        # Unfiltered, the old loop also counted reads too short to thread.
        short = 0 if solid is not None else sum(len(s) < k for s in seqs)
        assert got.n_reads == old.n_reads - short


@settings(max_examples=200, deadline=None)
@given(components(), st.data())
def test_pooled_blocks_equal_contract_whatever_the_cut(case, data):
    """Any cut of the routed reads into blocks — counted block by block
    against the contig-built graph, wherever each block was packed, pooled
    in any order — is the scalar oracle's graph, ``n_reads`` and weight."""
    k, members, seqs, solid = case
    seqs = seqs + data.draw(st.lists(st.sampled_from(["N" * (k + 2), "", "ACG"]), max_size=2))
    oriented = orient_component(members, k - 1)
    reads = [SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(seqs)), max_size=len(seqs) + 2)))
    bounds = [0, *cuts, len(seqs)]
    blocks = [range(a, b) for a, b in zip(bounds, bounds[1:])]  # some empty, some of one read

    got_graph = fasta_to_debruijn(oriented, k)
    # Blocks are packed where they were dealt: in any order, between
    # other components' units, in packs of their own.
    order = data.draw(st.permutations(range(len(blocks))))
    n_packs = data.draw(st.integers(1, 3))
    tables = []
    for part in range(n_packs):
        routed = {("left", part): [0] if reads else []}
        routed.update({(3, b): blocks[b] for b in order[part::n_packs]})
        with block_bases(data.draw(st.sampled_from([1, 40, 4096]))):
            pack = pack_routed_reads(reads, routed, k, solid)
        tables += [count_block((3, b), got_graph, pack) for b in order[part::n_packs]]
    assert got_graph.edge_weights() == fasta_to_debruijn(oriented, k).edge_weights()  # only read
    assert all(counts.dtype.kind in "iu" for _codes, counts, _n in tables)
    got = pool_blocks(3, got_graph, data.draw(st.permutations(tables)))

    want_graph = ref.fasta_to_debruijn(oriented, k)
    n_reads, weight = contract_quantify(want_graph, seqs, solid)
    assert got_graph.edge_weights() == ref.edge_weights(want_graph)
    assert (got.n_reads, got.read_edge_weight) == (n_reads, weight)
    assert type(got.n_reads) is int

    whole = fasta_to_debruijn(oriented, k)
    quantify_component(0, whole, pack_routed_reads(reads, {0: range(len(reads))}, k, solid))
    assert got_graph.codes.tobytes() == whole.codes.tobytes()
    assert got_graph.weights.tobytes() == whole.weights.tobytes()

    if not any("N" in s for s in seqs):
        old_graph = ref.fasta_to_debruijn(oriented, k)
        old = ref.quantify_component(3, old_graph, reads, range(len(reads)), solid=solid)
        assert got_graph.edge_weights() == ref.edge_weights(old_graph)
        assert got.read_edge_weight == old.read_edge_weight


CONTIG = "ATCGGATTACAGTCCGGTTAACGAGC"


def test_blocks_of_one_component_across_two_packs():
    """Two reads in one block, a third in a block packed elsewhere: the
    owner counts three reads, and the edge all three share carries them."""
    k = 7
    reads = [SeqRecord(f"r{i}", s) for i, s in enumerate((CONTIG[2:14], CONTIG[2:14], CONTIG[4:16]))]
    graph = fasta_to_debruijn([CONTIG], k)
    here = pack_routed_reads(reads, {(1, 0): [0, 1]}, k)
    there = pack_routed_reads(reads, {(9, 0): [], (1, 1): [2]}, k)
    tables = [count_block((1, 1), graph, there), count_block((1, 0), graph, here)]
    assert [n for _codes, _counts, n in tables] == [1, 2]
    quant = pool_blocks(1, graph, tables)
    assert (quant.n_reads, quant.read_edge_weight) == (3, 18.0)
    assert graph.edge_weights()[(CONTIG[4:10], CONTIG[5:11])] == 4.0


def test_n_dirties_only_the_k_window():
    """The read's one ``N`` closes its last k-window: every (k-1)-window
    before it is clean (the read still votes, on all of them) and so is
    every other k-window."""
    k = 7
    read = CONTIG[3:14] + "N"  # 6 clean 6-mers, 5 clean 7-mers
    got = fasta_to_debruijn([CONTIG], k)
    quant = quantify_between_neighbours(1, got, [read], None)
    want = ref.fasta_to_debruijn([CONTIG], k)
    want.add_sequence(CONTIG[3:14])
    assert got.edge_weights() == ref.edge_weights(want)
    assert (quant.n_reads, quant.read_edge_weight) == (1, 5.0)
    # On the reverse strand the vote still finds its 6 clean nodes.
    got = fasta_to_debruijn([CONTIG], k)
    quant = quantify_between_neighbours(1, got, [reverse_complement(read)], None)
    assert got.edge_weights() == ref.edge_weights(want)
    assert (quant.n_reads, quant.read_edge_weight) == (1, 5.0)


def test_last_window_of_a_slice_stays_home():
    """The last window of a component's last read, and the first of its
    first, belong to it and to no neighbour — with the neighbours' reads
    chosen so a leaked window would be a *new* edge."""
    k = 7
    mine = [CONTIG[0:9], CONTIG[12:20]]
    left, right = ["TTTTTTTGGGGGGG"], ["CCCCCCCAAAAAAA"]
    got = fasta_to_debruijn([CONTIG], k)
    quant = quantify_between_neighbours(5, got, mine, None, left=left, right=right)
    want = ref.fasta_to_debruijn([CONTIG], k)
    for seq in mine:
        want.add_sequence(seq)
    assert got.edge_weights() == ref.edge_weights(want)
    assert (quant.n_reads, quant.read_edge_weight) == (2, 3.0 + 2.0)


def test_zero_read_component_between_two():
    k = 7
    reads = [SeqRecord("a", CONTIG[0:10]), SeqRecord("b", CONTIG[8:20])]
    pack = pack_routed_reads(reads, {4: [0], 9: [], 2: [1]}, k)
    assert pack.spans == {4: (0, 1), 9: (1, 1), 2: (1, 2)}
    graphs = {cid: fasta_to_debruijn([CONTIG], k) for cid in (4, 9, 2)}
    quants = {cid: quantify_component(cid, g, pack) for cid, g in graphs.items()}
    assert [(q.n_reads, q.read_edge_weight) for q in quants.values()] == [
        (1, 4.0), (0, 0.0), (1, 6.0),
    ]
    assert graphs[9].edge_weights() == fasta_to_debruijn([CONTIG], k).edge_weights()
    assert graphs[4].weights.sum() + graphs[2].weights.sum() == 2 * 20.0 + 10.0


def test_support_reached_across_two_blocks():
    """Reads of one component land in different ``base_blocks`` blocks; the
    edge they share carries all of them, and the third read's last two
    k-mers (seen once in the library: not solid) none."""
    k = 7
    seqs = [CONTIG[2:14], CONTIG[2:14], CONTIG[4:16]]
    solid = counter_from_reads(seqs, k).filtered(2)
    whole = fasta_to_debruijn([CONTIG], k)
    quantify_between_neighbours(1, whole, seqs, solid)
    for block in (1, 12, 13, 24):
        with block_bases(block):
            cut = fasta_to_debruijn([CONTIG], k)
            quant = quantify_between_neighbours(1, cut, seqs, solid)
            assert len(pack_routed_reads([SeqRecord("r", s) for s in seqs],
                                         {0: range(3)}, k).block_bases) >= 2
        assert cut.edge_weights() == whole.edge_weights()
        assert (quant.n_reads, quant.read_edge_weight) == (3, 16.0)
    assert whole.edge_weights()[(CONTIG[4:10], CONTIG[5:11])] == 4.0


# -- Butterfly ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    weighted_sequences(),
    st.sampled_from([1, 2, 12]),
    st.sampled_from([1, 3, 6, 100_000]),
    st.sampled_from([0.0, 0.3, 1.0]),
)
def test_walk_equals_copying_dfs(case, max_paths, max_path_nodes, fraction):
    k, seqs = case
    graph, oracle = both_graphs(k, seqs)
    for seed in range(4):
        cfg = ButterflyConfig(
            max_paths_per_component=max_paths,
            max_path_nodes=max_path_nodes,
            min_edge_fraction=fraction,
            min_transcript_length=1,
            seed=seed,
        )
        got = transcripts(butterfly_component(7, graph, cfg))
        assert got == transcripts(ref.butterfly_rows(7, graph, cfg))
        assert got == transcripts(ref.butterfly_component(7, oracle, cfg, ref.dfs_in_place))
        assert got == transcripts(ref.butterfly_component(7, oracle, cfg, ref.dfs))
        assert len(got) <= max_paths


@settings(max_examples=200, deadline=None)
@given(weighted_sequences(), st.sampled_from([0.0, 0.3]), st.sampled_from([2, 12]))
def test_paths_never_nest_so_the_string_scan_keeps_them(case, fraction, max_paths):
    """``butterfly_component`` runs no containment scan: every path starts
    at a source and two walks from one source part at a branch, so no
    sequence it emits nests in another or repeats it, and the scan of
    every pair (``ref.dedup_contained``) returns them unchanged."""
    k, seqs = case
    graph, _oracle = both_graphs(k, seqs)
    if not graph.sources().size:  # a source-less graph falls back to unitigs
        return
    for seed in range(4):
        cfg = ButterflyConfig(
            max_paths_per_component=max_paths, min_edge_fraction=fraction,
            min_transcript_length=1, seed=seed,
        )
        found = [t.seq for t in butterfly_component(7, graph, cfg)]
        assert not [(i, j) for i, a in enumerate(found) for j, b in enumerate(found) if i != j and a in b]
        assert ref.dedup_contained(found) == found


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dedup_by_slots_on_nested_windows(data):
    """Windows of one backbone whose (k-1)-mers are distinct: a window is a
    run of slots (the backbone's nodes), and it nests in another window
    exactly when its slot run does.  The oracle's string scan keeps the
    windows whose slot runs no other run holds, longest first."""
    k = 8
    backbone = data.draw(st.text(alphabet="ACGT", min_size=k, max_size=80))
    nodes = [backbone[i : i + k - 1] for i in range(len(backbone) - k + 2)]
    if len(set(nodes)) < len(nodes):
        return
    runs = set()
    for _ in range(data.draw(st.integers(1, 8))):
        a = data.draw(st.integers(0, len(nodes) - 1))
        runs.add((a, data.draw(st.integers(a + 1, len(nodes)))))
    kept = [
        (a, b) for a, b in runs
        if not any(c <= a and b <= d and (c, d) != (a, b) for c, d in runs)
    ]
    want = sorted((backbone[a : b + k - 2] for a, b in kept), key=lambda s: (-len(s), s))
    assert ref.dedup_contained([backbone[a : b + k - 2] for a, b in runs]) == want


@st.composite
def run_shapes(draw):
    """``(k, [(sequence, weight)])`` at k=7 (4 096 possible nodes, so a 20-
    60 base backbone is one branch-free run until a shape cuts it):
    detours that leave the backbone and rejoin it later (a run entered
    mid-run through a branch edge, the rejoined node of step in-degree 2)
    or earlier (a cycle closing into the run's middle: the detour's run
    ends at a node already on the path), prefixes joining mid-run from
    sources of their own (two runs merging) and a backbone repeating one
    of its nodes (a run that ends at a repeat)."""
    k = 7
    weights = st.sampled_from([1.0, 2.0, 2.0, 5.0])
    backbone = draw(dna(20, 60))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(backbone) - k + 1))
        to = draw(st.integers(at + 1, len(backbone)))
        backbone = backbone[:to] + backbone[at : at + k - 1] + backbone[to:]
    seqs = [(backbone, draw(weights))]
    for _ in range(draw(st.integers(0, 3))):
        leave = draw(st.integers(k - 1, len(backbone)))
        rejoin = draw(st.integers(0, len(backbone) - k + 1))
        seqs.append((backbone[:leave] + draw(dna(0, 3)) + backbone[rejoin:], draw(weights)))
    for _ in range(draw(st.integers(0, 2))):
        rejoin = draw(st.integers(1, len(backbone) - k + 1))
        seqs.append((draw(dna(1, 8)) + backbone[rejoin:], draw(weights)))
    return k, seqs


def assert_walks_agree(graph, oracle, cfg):
    got = transcripts(butterfly_component(7, graph, cfg))
    assert got == transcripts(ref.butterfly_rows(7, graph, cfg))
    assert got == transcripts(ref.butterfly_component(7, oracle, cfg, ref.dfs_in_place))
    assert got == transcripts(ref.butterfly_component(7, oracle, cfg, ref.dfs))
    return got


@settings(max_examples=300, deadline=None)
@given(
    run_shapes(),
    st.sampled_from([1, 2, 12]),
    st.integers(1, 70),
    st.sampled_from([0.0, 0.3]),
)
def test_run_walk_equals_rows_oracle(case, max_paths, max_path_nodes, fraction):
    """The run walk, the per-node walk over the same rows and both
    dict-graph walks agree on long runs cut by every shape a run meets,
    with caps anywhere along them."""
    k, seqs = case
    graph, oracle = both_graphs(k, seqs)
    for seed in range(2):
        cfg = ButterflyConfig(
            max_paths_per_component=max_paths,
            max_path_nodes=max_path_nodes,
            min_edge_fraction=fraction,
            min_transcript_length=1,
            seed=seed,
        )
        assert len(assert_walks_agree(graph, oracle, cfg)) <= max_paths


BACKBONE = "GATTACAGCCTTAGGCATCGATGCAAGTCCGTTAGCTAACGGT"  # no 6-mer twice


def step_in_degrees(graph, cfg):
    """Per node, how many nodes have it as their only survivor."""
    _nodes, _sources, step, _branches = butterfly._walk_rows(graph, cfg, 0)
    return np.bincount([s for s in step if s >= 0], minlength=len(step))


@pytest.mark.parametrize(
    "name, extra",
    [
        # A branch at 12 whose arm re-enters the backbone's run at 20.
        ("entered mid-run", [BACKBONE[:12] + "T" + BACKBONE[20:]]),
        # A second source's run merging into the backbone's at 15.
        ("runs merging", ["CCCCCC" + BACKBONE[15:]]),
        # An arm leaving at 30 and closing into the run's middle at 5.
        ("cycle into mid-run", [BACKBONE[:30] + "G" + BACKBONE[5:]]),
        # The backbone's run steps onto its own 6-mer at 8 again.
        ("run ends at a repeat", [BACKBONE[:25] + BACKBONE[8:14] + BACKBONE[25:]]),
        # The backbone's walk lays 0-30 out as one run; a later source's
        # joins it at 15, leaves at 30 and re-enters at 5: its jump from 5
        # must stop at 14, the slot before its own.
        ("jump onto the path", ["TTTTTT" + BACKBONE[15:], BACKBONE[:30] + "G" + BACKBONE[5:]]),
    ],
)
def test_run_walk_on_named_shapes(name, extra):
    """Each shape a run meets, at every cap: the walks agree."""
    k = 7
    nodes = [BACKBONE[i : i + k - 1] for i in range(len(BACKBONE) - k + 2)]
    assert len(set(nodes)) == len(nodes)
    graph, oracle = both_graphs(k, [(BACKBONE, 2.0)] + [(seq, 2.0) for seq in extra])
    assert step_in_degrees(graph, ButterflyConfig()).max() == 2  # a run is entered mid-run
    for max_path_nodes in (*range(1, len(BACKBONE) + 4), 100_000):  # every cap, mid-run too
        for max_paths in (1, 2, 12):
            cfg = ButterflyConfig(
                max_paths_per_component=max_paths,
                max_path_nodes=max_path_nodes,
                min_transcript_length=1,
            )
            assert_walks_agree(graph, oracle, cfg)


def test_tied_siblings_follow_the_salt():
    """Three equally supported branches: their order is the salted hash's,
    not the codes' — some seed must put a later code first — and always
    the oracle's."""
    stem = "GATTACAG"
    arms = [stem + tail for tail in ("AACCGGTA", "CATCATCC", "TGTGAGAG")]
    graph = weighted_graph(7, *((arm, 2.0) for arm in arms))
    oracle = ref.DeBruijnGraph(k=7)
    for arm in arms:
        oracle.add_sequence(arm, 2.0)
    firsts = set()
    for seed in range(12):
        cfg = ButterflyConfig(seed=seed, max_paths_per_component=1, min_transcript_length=1)
        got = transcripts(butterfly_component(0, graph, cfg))
        assert got == transcripts(ref.butterfly_component(0, oracle, cfg))
        firsts.add(got[0][1])
    assert len(firsts) > 1


def test_floor_counts_on_path_siblings():
    """The edge closing a cycle is its node's strongest, and leads to a
    node already on the path; the way out is below ``min_edge_fraction``
    of it, so the path ends there although the strong sibling cannot be
    taken.  Above the floor, the way out is the path's first choice: one
    path allowed, it leaves."""
    k = 5
    loop = "ACGGTCA" + "ACGG"  # ACGG -> ... -> AACG -> ACGG
    seqs = [("TT" + loop, 10.0), ("CAACGTTTGC", 1.0)]  # weak exit AACG -> ACGT
    graph, oracle = both_graphs(k, seqs)
    for fraction, leaves in ((0.05, True), (0.5, False)):
        for max_paths in (1, 12):
            cfg = ButterflyConfig(
                min_edge_fraction=fraction, min_transcript_length=1,
                max_paths_per_component=max_paths,
            )
            got = transcripts(butterfly_component(0, graph, cfg))
            assert got == transcripts(ref.butterfly_component(0, oracle, cfg))
            assert any("TTTGC" in seq for _name, seq in got) == leaves


def test_sources_count_pruned_edges():
    """A node whose only in-edge is too weak to walk is still not a source."""
    k = 5
    seqs = [("AACCGGTTAC", 10.0), ("CCGGATCGA", 1.0)]  # weak branch CCGG -> CGGA
    graph, oracle = both_graphs(k, seqs)
    assert source_strings(graph) == oracle.sources() == ["AACC"]
    cfg = ButterflyConfig(min_edge_fraction=0.5, min_transcript_length=1)
    got = transcripts(butterfly_component(0, graph, cfg))
    assert got == transcripts(ref.butterfly_component(0, oracle, cfg))
    assert [seq for _name, seq in got] == ["AACCGGTTAC"]


def test_no_source_graph_falls_back_to_unitigs():
    ring = "ACGGTCAT"
    seqs = [(ring + ring[:4], 1.0), ("GTCAGG" + ring[:4], 1.0)]  # a cycle with a chord
    graph, oracle = both_graphs(5, seqs)
    assert graph.sources().size == 0 and oracle.sources() == []
    cfg = ButterflyConfig(min_transcript_length=1, max_paths_per_component=2)
    got = transcripts(butterfly_component(0, graph, cfg))
    assert got == transcripts(ref.butterfly_component(0, oracle, cfg))
    assert len(got) == 2


# -- the read vote --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sorted_vote_equals_unsorted_search(data):
    """``reverse_votes`` searching its windows sorted equals the search in
    window order: windows repeated, absent from the table, on either
    strand, from sequences in any order, and empty inputs on either side."""
    k = 5
    codes = st.integers(0, 255)  # (k-1)-mers
    nodes = np.unique(np.array(data.draw(st.lists(codes, max_size=20)), dtype=np.uint64))
    pool = [*nodes.tolist(), *kmers.revcomp_codes(nodes, k - 1).tolist()]
    window = st.sampled_from(pool) | codes if pool else codes
    windows = np.array(data.draw(st.lists(window, max_size=60)), dtype=np.uint64)
    n_seqs = data.draw(st.integers(1, 6))
    ids = st.lists(st.integers(0, n_seqs - 1), min_size=windows.size, max_size=windows.size)
    seq_ids = np.array(data.draw(ids), dtype=np.int64)
    if data.draw(st.booleans()):
        seq_ids.sort()  # read order, as the pack lists them
    got = reverse_votes(windows, seq_ids, n_seqs, nodes, k)
    assert got.tolist() == ref.reverse_votes_unsorted(windows, seq_ids, n_seqs, nodes, k).tolist()
