"""Property: the batched QuantifyGraph kernel and the in-place Butterfly
walk equal the scalar code they replaced (``tests.reference_chrysalis``).

``quantify_component`` is checked twice on every case: against a
string-only statement of its contract (orientation by distinct-node vote
against the pre-threading graph, forward on ties; a k-mer window is an
edge unless it holds a non-ACGT base or fails the solid filter;
``n_reads`` counts reads with a clean window), and — wherever the old
loop is defined and agrees with that contract, i.e. on ``N``-free reads —
against the old loop itself.  ``_dfs`` is checked against the copying
walk on the ordered ``(name, seq)`` list ``butterfly_component`` returns.

Hand mutants tried against this file (each restored afterwards), and the
test that fails:

* vote tie -> reverse wins (``votes[1] >= votes[0]``):
  ``test_quantify_component_equals_contract_and_oracle``
* non-distinct vote (every hit counted, ``first`` mask dropped): same
  test, through the stutter read (and
  ``test_orient.py::TestBestOrientation::test_repeated_node_votes_once``)
* vote against post-threading nodes (each block of reads voting on the
  graph the blocks before it left): same test, at block sizes 1-5,
  through the unrelated read routed on both strands
* un-canonicalised solid lookup (``solid.contains(fwd)``): same test
* in-place run skipping the ``on_path`` test: ``test_walk_equals_copying_dfs``
  (cyclic graphs: the walk no longer terminates a path at a repeat node)
* ``max_paths`` re-check dropped (``while stack:``): ``test_walk_equals_copying_dfs``
  at ``max_paths_per_component`` 1 and 2
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trinity.butterfly as butterfly
from repro.seq.alphabet import reverse_complement
from repro.seq.kmer_index import KmerCounter, counter_from_reads, decode_kmers
from repro.seq.records import SeqRecord
from repro.trinity.butterfly import ButterflyConfig, butterfly_component
from repro.trinity.chrysalis.debruijn import DeBruijnGraph, fasta_to_debruijn
from repro.trinity.chrysalis import quantify
from repro.trinity.chrysalis.orient import orient_component
from repro.trinity.chrysalis.quantify import quantify_component
from tests import reference_chrysalis as ref


def dna(lo, hi, alphabet="ACGT"):
    return st.text(alphabet=alphabet, min_size=lo, max_size=hi)


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
    solid = None
    if solid_kind == "present":
        clean = [s for s in (*contigs, *reads) if "N" not in s]
        solid = counter_from_reads(clean, k).filtered(draw(st.integers(1, 2)))
    elif solid_kind == "empty":
        solid = KmerCounter.empty(k)
    return k, members, [SeqRecord(f"r{i}", s) for i, s in enumerate(reads)], solid


def contract_quantify(graph, seqs, solid_kmers):
    """The kernel's contract in strings: returns ``(n_reads, weight)``."""
    k = graph.k
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
            if solid_kmers is None or min(kmer, reverse_complement(kmer)) in solid_kmers:
                graph._add_edge(kmer[:-1], kmer[1:], 1.0)
                weight += 1.0
    return n_reads, weight


@settings(max_examples=200, deadline=None)
@given(components(), st.sampled_from([1, 2, 5, 128]))
def test_quantify_component_equals_contract_and_oracle(case, block_reads):
    k, members, reads, solid = case
    oriented = orient_component(members, k - 1)
    indices = list(range(len(reads)))
    seqs = [r.seq for r in reads]

    got_graph = fasta_to_debruijn(oriented, k)
    # The kernel threads reads in internal blocks; no result may depend
    # on where the block boundaries fall.
    whole_blocks = quantify._BLOCK_READS
    quantify._BLOCK_READS = block_reads
    try:
        got = quantify_component(3, got_graph, reads, indices, solid=solid)
    finally:
        quantify._BLOCK_READS = whole_blocks
    assert got.component == 3 and got.graph is got_graph

    want_graph = fasta_to_debruijn(oriented, k)
    solid_kmers = None if solid is None else set(decode_kmers(solid.codes, k))
    n_reads, weight = contract_quantify(want_graph, seqs, solid_kmers)
    assert got_graph.edges == want_graph.edges
    assert got_graph._in_edges == want_graph._in_edges
    assert (got.n_reads, got.read_edge_weight) == (n_reads, weight)

    if not any("N" in s for s in seqs):
        old_graph = fasta_to_debruijn(oriented, k)
        old = ref.quantify_component(3, old_graph, reads, indices, solid=solid)
        assert got_graph.edges == old_graph.edges
        assert got_graph._in_edges == old_graph._in_edges
        assert got.read_edge_weight == old.read_edge_weight
        # Unfiltered, the old loop also counted reads too short to thread.
        short = 0 if solid is not None else sum(len(s) < k for s in seqs)
        assert got.n_reads == old.n_reads - short


@st.composite
def weighted_graphs(draw):
    """A weighted graph at k=5 (256 possible nodes, so random sequences
    collide into branches and cycles) from a backbone and variants of it
    (a substitution: a diamond; a deletion: a skip edge), each threaded at
    a weight from a small set so siblings often tie; extra sequences give
    several sources, a rotation-closed one gives a source-less cycle."""
    k = 5
    graph = DeBruijnGraph(k=k)
    weights = st.sampled_from([1.0, 1.0, 2.0, 5.0])
    if draw(st.integers(0, 4)) == 0:  # every node has a predecessor
        ring = draw(dna(6, 14))
        graph.add_sequence(ring + ring[: k - 1], draw(weights))
        if draw(st.booleans()):
            return graph
    backbone = draw(dna(8, 30))
    graph.add_sequence(backbone, draw(weights))
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.integers(1, len(backbone) - 2))
        b = draw(st.integers(a, min(a + 6, len(backbone) - 1)))
        variant = backbone[:a] + draw(dna(0, 3)) + backbone[b:]
        graph.add_sequence(variant, draw(weights))
    for extra in draw(st.lists(dna(k, 20), max_size=2)):
        graph.add_sequence(extra, draw(weights))
    return graph


@settings(max_examples=300, deadline=None)
@given(
    weighted_graphs(),
    st.sampled_from([1, 2, 12]),
    st.sampled_from([1, 3, 6, 100_000]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 3),
)
def test_walk_equals_copying_dfs(graph, max_paths, max_path_nodes, fraction, seed):
    cfg = ButterflyConfig(
        max_paths_per_component=max_paths,
        max_path_nodes=max_path_nodes,
        min_edge_fraction=fraction,
        min_transcript_length=1,
        seed=seed,
    )
    got = [(t.name, t.seq) for t in butterfly_component(7, graph, cfg)]
    in_place = butterfly._dfs
    butterfly._dfs = ref.dfs
    try:
        want = [(t.name, t.seq) for t in butterfly_component(7, graph, cfg)]
    finally:
        butterfly._dfs = in_place
    assert got == want
    assert len(got) <= max_paths
