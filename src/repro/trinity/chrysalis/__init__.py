"""Chrysalis: clustering Inchworm contigs and assigning reads.

Substeps, in workflow order (paper SS:II.A, SS:III):

1. Bowtie aligns reads to Inchworm contigs (:mod:`repro.trinity.bowtie`)
   — read pairs spanning two contigs contribute scaffolding welds.
2. :mod:`~repro.trinity.chrysalis.graph_from_fasta` — loop 1 harvests
   read-supported "welding" 2k-mers shared between contigs; loop 2 finds
   contig pairs sharing a weld; union-find clustering builds components.
3. :mod:`~repro.trinity.chrysalis.debruijn` (FastaToDebruijn) builds a de
   Bruijn graph per component: sorted k-mer edge codes and their weights.
4. :mod:`~repro.trinity.chrysalis.reads_to_transcripts` assigns each read
   to the component sharing the most k-mers.
5. :mod:`~repro.trinity.chrysalis.quantify` (QuantifyGraph) weights each
   component graph with its assigned reads.
"""

from repro.trinity.chrysalis.components import UnionFind, Component, build_components
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    WeldCandidate,
    graph_from_fasta,
    harvest_welds_for_contig,
    find_weld_pairs_for_contig,
    build_weld_index,
    build_weldmer_index,
    shared_seed_array,
    weld_index_keys,
    canonical_weldmer,
)
from repro.trinity.chrysalis.debruijn import DeBruijnGraph, fasta_to_debruijn, spell_path
from repro.trinity.chrysalis.orient import orient_component, reverse_votes
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadsToTranscriptsConfig,
    ReadAssignment,
    reads_to_transcripts,
    build_kmer_map,
)
from repro.trinity.chrysalis.quantify import (
    ComponentQuant,
    ReadPack,
    pack_routed_reads,
    quantify_component,
    quantify_graph,
    reads_by_component,
)

__all__ = [
    "UnionFind",
    "Component",
    "build_components",
    "GraphFromFastaConfig",
    "WeldCandidate",
    "graph_from_fasta",
    "harvest_welds_for_contig",
    "find_weld_pairs_for_contig",
    "build_weld_index",
    "build_weldmer_index",
    "shared_seed_array",
    "weld_index_keys",
    "canonical_weldmer",
    "DeBruijnGraph",
    "fasta_to_debruijn",
    "spell_path",
    "orient_component",
    "reverse_votes",
    "ReadsToTranscriptsConfig",
    "ReadAssignment",
    "reads_to_transcripts",
    "build_kmer_map",
    "quantify_graph",
    "quantify_component",
    "pack_routed_reads",
    "ReadPack",
    "reads_by_component",
    "ComponentQuant",
]
