"""The string-keyed Chrysalis back end: the oracles for
``repro.trinity.chrysalis.{debruijn,quantify}`` and
``repro.trinity.butterfly``.

Everything here is code the array kernels replaced, moved unchanged:

* the dict-of-dicts :class:`DeBruijnGraph` over (k-1)-mer *strings*, with
  ``add_sequence`` / ``add_kmers`` / ``unitigs`` and :func:`spell_path`
  (until PR 22 ``repro.trinity.chrysalis.debruijn``);
* the per-read QuantifyGraph loop with its string-set orientation vote
  (``best_orientation``) and per-window ``add_sequence_masked`` /
  ``add_sequence_filtered`` threading (until PR 18), and the batched
  vote's binary search of its windows in read order
  (:func:`reverse_votes_unsorted`; ``orient.reverse_votes`` sorts them);
* two Butterfly walks over the dict graph: :func:`dfs`, which copies its
  path and ``on_path`` set at every node (until PR 18), and
  :func:`dfs_in_place`, which extends them in place and sorts siblings
  at each branch it reaches (until PR 22) — and :func:`butterfly_component`,
  the enumeration around either;
* the rows oracle: :func:`rows_dfs`, the walk over the array graph's
  integer rows that steps one node at a time and keys its paths by their
  node tuples (``butterfly._dfs`` before the run walk), and
  :func:`butterfly_rows`, the enumeration around it.

The dict-graph code handles reads and contigs as strings throughout —
it touches ``repro.seq.kmers`` only for the solid lookup the old loop
itself made.  The rows oracle and the unsorted vote take the array
kernels' own inputs.

Things the oracle does that the kernels deliberately do not (the ``N``
rule of DESIGN §5.16, extended to contigs in §5.20): it threads windows
holding a non-ACGT base into the graph as nodes (contigs always; reads
with ``solid=None``), counts reads shorter than ``k`` in ``n_reads``
when unfiltered, raises on a read holding an ``N`` when filtered, keeps
lower-case bases lower-case, and visits nodes in dict insertion order
where the kernels use code order.  Property tests therefore compare
against it on upper-case ``N``-free contigs and on ``N``-free reads of
at least ``k`` bases, and check the rules themselves otherwise.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import kmer_array, revcomp_codes
from repro.seq.records import SeqRecord, Transcript
from repro.trinity import butterfly
from repro.trinity.butterfly import ButterflyConfig
from repro.trinity.chrysalis import debruijn
from repro.trinity.chrysalis.quantify import ComponentQuant
from repro.util.rng import derive_seed

# -- FastaToDebruijn ----------------------------------------------------------


@dataclass
class DeBruijnGraph:
    """A weighted de Bruijn graph over (k-1)-mer string nodes."""

    k: int
    edges: Dict[str, Dict[str, float]] = field(default_factory=dict)
    _in_edges: Dict[str, Set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise PipelineError(f"de Bruijn k must be >= 2, got {self.k}")

    # -- construction ------------------------------------------------------
    def add_sequence(self, seq: str, weight: float = 1.0) -> int:
        """Thread a sequence through the graph; returns #edges touched."""
        k = self.k
        if len(seq) < k:
            return 0
        touched = 0
        prev = seq[: k - 1]
        for i in range(1, len(seq) - k + 2):
            cur = seq[i : i + k - 1]
            self._add_edge(prev, cur, weight)
            prev = cur
            touched += 1
        return touched

    def add_kmers(self, kmers: Iterable[str], weights: Iterable[float]) -> None:
        """Add one weighted edge per k-mer string.

        A k-mer *is* an edge — from its (k-1)-prefix node to its
        (k-1)-suffix node — so a batch of distinct k-mers with their
        multiplicities is a whole threading pass (QuantifyGraph counts a
        component's read k-mers in arrays and lands them here, one dict
        touch per distinct edge).
        """
        for kmer, weight in zip(kmers, weights):
            self._add_edge(kmer[:-1], kmer[1:], weight)

    def _add_edge(self, u: str, v: str, weight: float) -> None:
        out = self.edges.setdefault(u, {})
        out[v] = out.get(v, 0.0) + weight
        self.edges.setdefault(v, {})
        self._in_edges.setdefault(v, set()).add(u)
        self._in_edges.setdefault(u, set())

    # -- queries -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.edges)

    @property
    def n_edges(self) -> int:
        return sum(len(d) for d in self.edges.values())

    def successors(self, node: str) -> Dict[str, float]:
        return self.edges.get(node, {})

    def predecessors(self, node: str) -> Set[str]:
        return self._in_edges.get(node, set())

    def sources(self) -> List[str]:
        """Nodes with no predecessors (path starts), sorted for determinism."""
        return sorted(n for n in self.edges if not self._in_edges.get(n))

    def out_degree(self, node: str) -> int:
        return len(self.edges.get(node, {}))

    def in_degree(self, node: str) -> int:
        return len(self._in_edges.get(node, ()))

    def total_weight(self) -> float:
        return sum(w for d in self.edges.values() for w in d.values())

    def reweight(self, fn) -> None:
        """Apply ``fn(u, v, w) -> w'`` to every edge in place."""
        for u, outs in self.edges.items():
            for v in list(outs):
                outs[v] = fn(u, v, outs[v])

    # -- compaction ---------------------------------------------------------
    def unitigs(self) -> List[str]:
        """Maximal unbranched paths spelled out as sequences.

        Used by tests and by Butterfly's linear fast path: a component
        whose graph is one unitig is a single-isoform gene.
        """
        visited_edges: Set[Tuple[str, str]] = set()
        out: List[str] = []
        starts = [
            n
            for n in sorted(self.edges)
            if self.in_degree(n) != 1 or self.out_degree(n) != 1
        ]
        for start in starts:
            for nxt in sorted(self.successors(start)):
                if (start, nxt) in visited_edges:
                    continue
                path = [start, nxt]
                visited_edges.add((start, nxt))
                cur = nxt
                while self.in_degree(cur) == 1 and self.out_degree(cur) == 1:
                    follow = next(iter(self.successors(cur)))
                    if (cur, follow) in visited_edges:
                        break
                    visited_edges.add((cur, follow))
                    path.append(follow)
                    cur = follow
                out.append(spell_path(path))
        return out


def spell_path(nodes: Sequence[str]) -> str:
    """Spell the sequence of a node path (overlap k-2 between nodes)."""
    if not nodes:
        return ""
    seq = [nodes[0]]
    for node in nodes[1:]:
        seq.append(node[-1])
    return "".join(seq)


def fasta_to_debruijn(sequences: Iterable[str], k: int) -> DeBruijnGraph:
    """Build a component graph from its contig sequences (FastaToDebruijn)."""
    g = DeBruijnGraph(k=k)
    for seq in sequences:
        g.add_sequence(seq)
    return g


def edge_weights(graph: DeBruijnGraph) -> Dict[Tuple[str, str], float]:
    """The dict graph as ``{(u, v): w}``: the array graph's decoded view."""
    return {(u, v): w for u, outs in graph.edges.items() for v, w in outs.items()}


# -- QuantifyGraph ------------------------------------------------------------


def best_orientation(seq: str, node_set: Set[str], k: int) -> str:
    """Orient one sequence (e.g. a read) against a graph's node strings.

    Returns the orientation sharing more (k-1)-mer nodes with the graph;
    forward wins ties.
    """
    fwd_nodes = {seq[i : i + k - 1] for i in range(len(seq) - k + 2)}
    rc = reverse_complement(seq)
    rev_nodes = {rc[i : i + k - 1] for i in range(len(rc) - k + 2)}
    if len(rev_nodes & node_set) > len(fwd_nodes & node_set):
        return rc
    return seq


def reverse_votes_unsorted(
    windows: np.ndarray, seq_ids: np.ndarray, n_seqs: int, nodes: np.ndarray, k: int
) -> np.ndarray:
    """``orient.reverse_votes`` searching its windows in the order given."""
    if not (windows.size and nodes.size):
        return np.zeros(n_seqs, dtype=bool)
    table, row = np.unique(
        np.concatenate((nodes, revcomp_codes(nodes, k - 1))), return_inverse=True
    )
    strand = np.zeros((2, table.size), dtype=bool)  # entry is a node / an rc(node)
    strand[0, row[: nodes.size]] = strand[1, row[nodes.size :]] = True
    pos = np.searchsorted(table, windows)
    pos[pos == table.size] = 0
    hit = table[pos] == windows
    # One key per (sequence, table entry): a repeated (k-1)-mer votes once.
    pairs = np.sort(seq_ids[hit] * table.size + pos[hit])
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    seq, entry = np.divmod(pairs[first], table.size)
    forward, reverse = (
        np.bincount(seq[strand[s, entry]], minlength=n_seqs) for s in (0, 1)
    )
    return reverse > forward


def add_sequence_filtered(
    graph: DeBruijnGraph, seq: str, is_solid: Callable[[str], bool], weight: float = 1.0
) -> int:
    """Thread a sequence, skipping edges whose k-mer fails ``is_solid``.

    Each maximal solid run threads contiguously; runs are not connected
    across skipped edges.  Returns #edges touched.
    """
    k = graph.k
    if len(seq) < k:
        return 0
    touched = 0
    prev = seq[: k - 1]
    for i in range(1, len(seq) - k + 2):
        cur = seq[i : i + k - 1]
        kmer = seq[i - 1 : i - 1 + k]
        if is_solid(kmer):
            graph._add_edge(prev, cur, weight)
            touched += 1
        prev = cur
    return touched


def add_sequence_masked(
    graph: DeBruijnGraph, seq: str, solid_mask: Sequence[bool], weight: float = 1.0
) -> int:
    """Thread a sequence, keeping only edges whose k-mer index is True in
    ``solid_mask`` (one flag per raw ``len(seq)-k+1`` window)."""
    k = graph.k
    n_windows = len(seq) - k + 1
    if n_windows <= 0:
        return 0
    if len(solid_mask) != n_windows:
        raise PipelineError(
            f"mask length {len(solid_mask)} != window count {n_windows}"
        )
    touched = 0
    prev = seq[: k - 1]
    for i in range(1, n_windows + 1):
        cur = seq[i : i + k - 1]
        if solid_mask[i - 1]:
            graph._add_edge(prev, cur, weight)
            touched += 1
        prev = cur
    return touched


def quantify_component(
    component: int,
    graph: DeBruijnGraph,
    reads: Sequence[SeqRecord],
    read_indices: Sequence[int],
    solid=None,
) -> ComponentQuant:
    """Thread one component's routed reads through its graph, one at a time."""
    base_weight = graph.total_weight()
    node_set = set(graph.edges)
    n_reads = 0
    for ri in read_indices:
        read = reads[ri]
        # Reads are strand-symmetric; thread the orientation that shares
        # more nodes with the (single-stranded) component graph.
        oriented = best_orientation(read.seq, node_set, graph.k)
        if solid is None:
            graph.add_sequence(oriented)
        else:
            arr = kmer_array(oriented, graph.k)
            if arr.size == 0:
                continue
            if solid.canonical:
                stored = np.minimum(arr, revcomp_codes(arr, graph.k))
            else:  # a strand-specific table holds the k-mers as read
                stored = arr if oriented == read.seq else revcomp_codes(arr, graph.k)
            mask = solid.contains(stored).tolist()
            add_sequence_masked(graph, oriented, mask)
        n_reads += 1
    return ComponentQuant(
        component=component,
        n_reads=n_reads,
        graph=graph,
        read_edge_weight=graph.total_weight() - base_weight,
    )


# -- Butterfly ----------------------------------------------------------------


def dedup_contained(seqs: Sequence[str]) -> List[str]:
    """Drop sequences wholly contained in another (longest kept): the
    string scan of every pair.  ``butterfly.butterfly_component`` runs
    none, as its paths never nest; this holds it to that."""
    ordered = sorted(set(seqs), key=lambda s: (-len(s), s))
    kept: List[str] = []
    for s in ordered:
        if not any(s in longer for longer in kept):
            kept.append(s)
    return kept


def butterfly_component(
    component_id: int,
    graph: DeBruijnGraph,
    cfg: Optional[ButterflyConfig] = None,
    walk=None,
) -> List[Transcript]:
    """Enumerate transcripts for one component graph (``walk``:
    :func:`dfs_in_place`, the default, or :func:`dfs`)."""
    cfg = cfg or ButterflyConfig()
    walk = walk or dfs_in_place
    min_len = cfg.resolved_min_length(graph.k)
    salt = derive_seed(cfg.seed, "butterfly", component_id)
    paths: List[Tuple[str, ...]] = []
    seen_paths: Set[Tuple[str, ...]] = set()

    sources = graph.sources()
    if not sources:
        # Fully cyclic graph (rare; repeat-only component): fall back to
        # unitigs so the component still yields sequence.
        return _from_unitigs(component_id, graph, cfg)

    for src in sources:
        walk(graph, src, cfg, salt, paths, seen_paths)
        if len(paths) >= cfg.max_paths_per_component:
            break

    seqs = dedup_contained([spell_path(p) for p in paths])
    out: List[Transcript] = []
    for i, seq in enumerate(seqs):
        if len(seq) < min_len:
            continue
        out.append(
            Transcript(
                name=f"comp{component_id}_seq{i}",
                seq=seq,
                component=component_id,
            )
        )
    return out


def dfs_in_place(
    graph: DeBruijnGraph,
    src: str,
    cfg: ButterflyConfig,
    salt: int,
    paths: List[Tuple[str, ...]],
    seen_paths: Set[Tuple[str, ...]],
) -> None:
    """Iterative DFS from one source, branch-pruned by read support.

    A stack entry owns its ``path`` list and ``on_path`` set, so the
    best viable successor extends both in place; only the other siblings
    at a node with two or more viable successors get copies.  Component
    graphs are mostly unbranched chains, which makes one path cost
    O(nodes) instead of the O(nodes^2) of a copy per node.
    """
    stack: List[Tuple[List[str], Set[str]]] = [([src], {src})]
    while stack and len(paths) < cfg.max_paths_per_component:
        path, on_path = stack.pop()
        while True:
            succs = graph.successors(path[-1])
            # Prune weak branches relative to the strongest sibling, and
            # successors already on the path (no cycles in one transcript).
            floor = cfg.min_edge_fraction * max(succs.values(), default=0.0)
            viable = [
                (nxt, w)
                for nxt, w in succs.items()
                if nxt not in on_path and w >= floor
            ]
            if not viable or len(path) >= cfg.max_path_nodes:
                key = tuple(path)
                if key not in seen_paths:
                    seen_paths.add(key)
                    paths.append(key)
                break
            if len(viable) > 1:
                # Deterministic-but-seeded branch order: strongest support
                # first, equal support ordered by a salted hash (the
                # modelled source of output variation between repeated
                # Trinity runs).
                viable.sort(
                    key=lambda nw: (
                        -nw[1], (zlib.crc32(nw[0].encode()) ^ salt) & 0xFFFFFFFF, nw[0]
                    )
                )
                # Depth-first: the best branch is walked next (in place,
                # below); the rest wait beneath it, next-best on top.
                for nxt, _w in reversed(viable[1:]):
                    stack.append(([*path, nxt], {*on_path, nxt}))
            best = viable[0][0]
            path.append(best)
            on_path.add(best)


def _from_unitigs(
    component_id: int, graph: DeBruijnGraph, cfg: ButterflyConfig
) -> List[Transcript]:
    min_len = cfg.resolved_min_length(graph.k)
    out = []
    for i, seq in enumerate(graph.unitigs()):
        if len(seq) >= min_len:
            out.append(
                Transcript(name=f"comp{component_id}_seq{i}", seq=seq, component=component_id)
            )
        if len(out) >= cfg.max_paths_per_component:
            break
    return out


def dfs(
    graph: DeBruijnGraph,
    src: str,
    cfg: ButterflyConfig,
    salt: int,
    paths: List[Tuple[str, ...]],
    seen_paths: Set[Tuple[str, ...]],
) -> None:
    """Iterative DFS from one source, copying path and ``on_path`` per node."""
    stack: List[Tuple[List[str], Set[str]]] = [([src], {src})]
    while stack and len(paths) < cfg.max_paths_per_component:
        path, on_path = stack.pop()
        node = path[-1]
        succs = graph.successors(node)
        # Prune weak branches relative to the strongest sibling.
        viable: List[Tuple[str, float]] = []
        if succs:
            w_max = max(succs.values())
            for nxt, w in succs.items():
                if nxt in on_path:  # no cycles within one transcript
                    continue
                if w >= cfg.min_edge_fraction * w_max:
                    viable.append((nxt, w))
        if not viable or len(path) >= cfg.max_path_nodes:
            key = tuple(path)
            if key not in seen_paths:
                seen_paths.add(key)
                paths.append(key)
            continue
        viable.sort(
            key=lambda nw: (-nw[1], (zlib.crc32(nw[0].encode()) ^ salt) & 0xFFFFFFFF, nw[0])
        )
        # Depth-first: push in reverse so the best branch is explored first.
        for nxt, _w in reversed(viable):
            stack.append((path + [nxt], on_path | {nxt}))


def butterfly_rows(
    component_id: int, graph: debruijn.DeBruijnGraph, cfg: Optional[ButterflyConfig] = None
) -> List[Transcript]:
    """Enumerate transcripts for one array component graph with
    :func:`rows_dfs` over ``butterfly._walk_rows``' rows."""
    cfg = cfg or ButterflyConfig()
    min_len = cfg.resolved_min_length(graph.k)
    salt = derive_seed(cfg.seed, "butterfly", component_id)
    nodes, sources, step, branches = butterfly._walk_rows(graph, cfg, salt)
    if not sources:
        return butterfly._from_unitigs(component_id, graph, cfg)
    paths: List[Tuple[int, ...]] = []
    seen_paths: Set[Tuple[int, ...]] = set()
    for src in sources:
        rows_dfs(step, branches, src, cfg, paths, seen_paths)
        if len(paths) >= cfg.max_paths_per_component:
            break
    seqs = dedup_contained([debruijn.spell_path(nodes[list(p)], graph.k) for p in paths])
    return [
        Transcript(name=f"comp{component_id}_seq{i}", seq=seq, component=component_id)
        for i, seq in enumerate(seqs)
        if len(seq) >= min_len
    ]


def rows_dfs(
    step: List[int],
    branches: Dict[int, Tuple[int, ...]],
    src: int,
    cfg: ButterflyConfig,
    paths: List[Tuple[int, ...]],
    seen_paths: Set[Tuple[int, ...]],
) -> None:
    """Iterative DFS from one source row over ``_walk_rows``' rows.

    A stack entry owns its ``path`` list and ``on_path`` set, so the
    best viable successor extends both in place; only the other siblings
    at a node with two or more viable successors get copies.  Component
    graphs are mostly unbranched chains, which makes one path cost
    O(nodes) instead of the O(nodes^2) of a copy per node.
    """
    limit = cfg.max_path_nodes
    stack: List[Tuple[List[int], Set[int]]] = [([src], {src})]
    while stack and len(paths) < cfg.max_paths_per_component:
        path, on_path = stack.pop()
        node, size = path[-1], len(path)
        while True:
            # The node's surviving successors, minus those already on the
            # path (no cycles in one transcript).
            best = step[node]
            if best == butterfly._BRANCH:
                viable = [nxt for nxt in branches[node] if nxt not in on_path]
                best = viable[0] if viable else butterfly._END
                # Depth-first: the best branch is walked next (in place,
                # below); the rest wait beneath it, next-best on top.
                if size < limit:
                    for nxt in reversed(viable[1:]):
                        stack.append(([*path, nxt], {*on_path, nxt}))
            if best == butterfly._END or best in on_path or size >= limit:
                key = tuple(path)
                if key not in seen_paths:
                    seen_paths.add(key)
                    paths.append(key)
                break
            path.append(best)
            on_path.add(best)
            node, size = best, size + 1
