"""Property-based tests for assembly-stage invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.kmers import canonical_kmers
from repro.seq.records import SeqRecord
from repro.trinity.chrysalis.components import build_components
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig, graph_from_fasta
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadsToTranscriptsConfig,
    reads_to_transcripts,
)
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count

K = 9

source_seqs = st.lists(
    st.text(alphabet="ACGT", min_size=25, max_size=80), min_size=1, max_size=4
)


@settings(max_examples=25, deadline=None)
@given(source_seqs, st.integers(0, 3))
def test_inchworm_invariants(seqs, seed):
    """Every contig k-mer was counted; no k-mer is used by two contigs;
    contigs meet the minimum length."""
    counts = jellyfish_count([SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)], K)
    cfg = InchwormConfig(seed=seed)
    contigs = inchworm_assemble(counts, cfg)
    seen = set()
    for contig in contigs:
        assert len(contig.seq) >= 2 * K
        for code in canonical_kmers(contig.seq, K).tolist():
            assert counts.get(code) > 0
            assert code not in seen
            seen.add(code)


@settings(max_examples=25, deadline=None)
@given(source_seqs, st.integers(0, 3))
def test_inchworm_deterministic_per_seed(seqs, seed):
    counts = jellyfish_count([SeqRecord(f"r{i}", s) for i, s in enumerate(seqs)], K)
    cfg = InchwormConfig(seed=seed)
    a = inchworm_assemble(counts, cfg)
    b = inchworm_assemble(counts, cfg)
    assert [c.seq for c in a] == [c.seq for c in b]


@settings(max_examples=15, deadline=None)
@given(source_seqs)
def test_gff_components_partition_contigs(seqs):
    reads = [SeqRecord(f"r{i}", s) for i, s in enumerate(seqs * 2)]
    counts = jellyfish_count(reads, K)
    contigs = inchworm_assemble(counts, InchwormConfig())
    if not contigs:
        return
    result = graph_from_fasta(contigs, reads, GraphFromFastaConfig(k=K - 1))
    members = sorted(m for c in result.components for m in c.members)
    assert members == list(range(len(contigs)))
    for a, b in result.pairs:
        assert 0 <= a < b < len(contigs)


@settings(max_examples=15, deadline=None)
@given(source_seqs, st.integers(1, 7))
def test_rtt_covers_every_read_once(seqs, chunk):
    reads = [SeqRecord(f"r{i}", s) for i, s in enumerate(seqs * 2)]
    counts = jellyfish_count(reads, K)
    contigs = inchworm_assemble(counts, InchwormConfig())
    if not contigs:
        return
    components = build_components(len(contigs), [])
    cfg = ReadsToTranscriptsConfig(k=K, max_mem_reads=chunk)
    assignments = reads_to_transcripts(reads, contigs, components, cfg)
    assert [a.read_index for a in assignments] == list(range(len(reads)))
    comp_ids = {c.id for c in components}
    for a in assignments:
        assert a.component == -1 or a.component in comp_ids
