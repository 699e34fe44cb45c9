"""Unit tests for Butterfly's paired-end reconciliation."""

import pytest

from repro.seq.alphabet import reverse_complement
from repro.seq.records import SeqRecord, Transcript, mate_index
from repro.trinity.chrysalis.quantify import reads_by_component
from repro.trinity.chrysalis.reads_to_transcripts import ReadAssignment
from repro.trinity.pairs import (
    _pair_supports,
    component_mates,
    reconcile_with_pairs,
    repeated_names,
)

ISO1 = "ATCGGATTACAGTCCGGTTAACGAGCTTGGCATGCATTTGGCCAATGG"
ISO2 = "ATCGGATTACAGTCCGGTCATGCATTTGGCCAATGG"  # exon-skipped variant


def pair_support(transcript_seq, pairs):
    """Pairs with both mates in one transcript, by the pass
    ``reconcile_with_pairs`` runs."""
    return _pair_supports([transcript_seq], pairs)[0]


def mate_groups(reads):
    """Read indices of every mate pair, by base name (``mate_index``)."""
    return {
        reads[a].name[:-2]: sorted((a, b))
        for a, b in mate_index([r.name for r in reads]).tolist()
    }


def component_pairs(reads, assigns):
    """Mate-pair sequences per component (``component_mates``)."""
    routed = reads_by_component(assigns)
    by_component = component_mates(reads, routed, routed, repeated_names(reads))
    return {
        cid: [(reads[a].seq, reads[b].seq) for a, b in rows.tolist()]
        for cid, rows in by_component.items()
    }


def assignment(idx, comp):
    return ReadAssignment(idx, f"p{idx // 2}/{idx % 2 + 1}", comp, 5, 0, 10)


class TestMateGroups:
    def test_pairs_found(self):
        reads = [SeqRecord("a/1", "AC"), SeqRecord("a/2", "GT"), SeqRecord("b/1", "TT")]
        groups = mate_groups(reads)
        assert groups == {"a": [0, 1]}

    def test_unpaired_names_excluded(self):
        reads = [SeqRecord("solo", "AC")]
        assert mate_groups(reads) == {}

    @pytest.mark.parametrize(
        "names",
        [("solo", "solo"), ("lib/a", "lib/b"), ("x/1", "x/1")],
        ids=["same-bare-name", "shared-prefix", "same-mate-twice"],
    )
    def test_records_sharing_a_prefix_are_not_mates(self, names):
        # Only a final /1 or /2 is a mate suffix, and a pair is exactly
        # one of each: all three used to come back as {base: [0, 1]}.
        assert mate_groups([SeqRecord(name, "ACGT") for name in names]) == {}

    def test_mates_pair_in_either_order_and_among_strays(self):
        names = ["lib/a", "p/2", "solo", "q/1", "p/1", "q/1"]
        assert mate_groups([SeqRecord(n, "ACGT") for n in names]) == {"p": [1, 4]}


class TestComponentPairs:
    def test_both_mates_same_component(self):
        reads = [SeqRecord("p0/1", ISO1[:20]), SeqRecord("p0/2", ISO1[-20:])]
        assigns = [
            ReadAssignment(0, "p0/1", 3, 5, 0, 10),
            ReadAssignment(1, "p0/2", 3, 5, 0, 10),
        ]
        pairs = component_pairs(reads, assigns)
        assert 3 in pairs and len(pairs[3]) == 1

    def test_split_pairs_excluded(self):
        reads = [SeqRecord("p0/1", "ACGTACGT"), SeqRecord("p0/2", "TTGGCCAA")]
        assigns = [
            ReadAssignment(0, "p0/1", 1, 5, 0, 8),
            ReadAssignment(1, "p0/2", 2, 5, 0, 8),
        ]
        assert component_pairs(reads, assigns) == {}

    def test_unassigned_excluded(self):
        reads = [SeqRecord("p0/1", "ACGTACGT"), SeqRecord("p0/2", "TTGGCCAA")]
        assigns = [
            ReadAssignment(0, "p0/1", -1, 0, 0, 0),
            ReadAssignment(1, "p0/2", -1, 0, 0, 0),
        ]
        assert component_pairs(reads, assigns) == {}


class TestPairSupport:
    def test_both_mates_contained(self):
        pairs = [(ISO1[:15], ISO1[-15:])]
        assert pair_support(ISO1, pairs) == 1

    def test_rc_mate_counts(self):
        pairs = [(ISO1[:15], reverse_complement(ISO1[-15:]))]
        assert pair_support(ISO1, pairs) == 1

    def test_one_mate_missing(self):
        pairs = [(ISO1[:15], "AAAAAAAAAAAAAAA")]
        assert pair_support(ISO1, pairs) == 0

    def test_multiple_pairs(self):
        pairs = [(ISO1[:12], ISO1[20:32]), (ISO1[5:17], ISO1[-12:])]
        assert pair_support(ISO1, pairs) == 2


class TestReconcile:
    def _setup(self):
        # Pair spanning ISO1's middle exon: supports ISO1, not ISO2.
        left = ISO1[10:26]
        right = ISO1[22:38]
        reads = [SeqRecord("p0/1", left), SeqRecord("p0/2", right)]
        assigns = [
            ReadAssignment(0, "p0/1", 0, 8, 0, 16),
            ReadAssignment(1, "p0/2", 0, 8, 0, 16),
        ]
        transcripts = [
            Transcript("comp0_seq0", ISO1, component=0),
            Transcript("comp0_seq1", ISO2, component=0),
        ]
        return transcripts, reads, assigns

    def test_unsupported_isoform_dropped(self):
        transcripts, reads, assigns = self._setup()
        kept, stats = reconcile_with_pairs(transcripts, reads, assigns)
        assert [t.seq for t in kept] == [ISO1]
        assert stats.n_in - stats.n_out == 1
        assert stats.n_components_filtered == 1

    def test_component_without_pairs_untouched(self):
        transcripts = [
            Transcript("comp5_seq0", ISO1, component=5),
            Transcript("comp5_seq1", ISO2, component=5),
        ]
        kept, stats = reconcile_with_pairs(transcripts, [], [])
        assert len(kept) == 2
        assert stats.n_in - stats.n_out == 0

    def test_no_supported_candidate_keeps_all(self):
        transcripts, reads, assigns = self._setup()
        # Pair whose mates never co-occur in either candidate.
        reads = [SeqRecord("p0/1", "A" * 16), SeqRecord("p0/2", "C" * 16)]
        kept, stats = reconcile_with_pairs(transcripts, reads, assigns)
        assert len(kept) == 2

    def test_output_sorted_and_deterministic(self):
        transcripts, reads, assigns = self._setup()
        kept1, _ = reconcile_with_pairs(transcripts, reads, assigns)
        kept2, _ = reconcile_with_pairs(list(reversed(transcripts)), reads, assigns)
        assert [t.name for t in kept1] == [t.name for t in kept2]


class TestExactOnAnyStrings:
    """The seed-and-verify pass must answer as ``str in str`` does."""

    def test_case_n_empty_and_text_ends(self):
        from tests import reference_pairs

        transcript = "ACGTacgtNNACGTTGCA" + ISO1
        spill = ISO1[-35:] + reverse_complement(ISO1)[0]  # runs on into the other strand's text
        pairs = [
            ("acgt", "ACGT"), ("ACGTACGT", ISO1[:20]), ("NN", ""), (spill, spill),
            (reverse_complement(ISO1[-33:]), "TGCA"), (ISO1 + "A", ISO1), (ISO1[-33:], ISO1[:33]),
        ]
        for t in (transcript, ISO1, ISO2, ""):
            assert pair_support(t, pairs) == reference_pairs.pair_support(t, pairs)
        assert pair_support(ISO1, [(spill, spill)]) == 0
        assert pair_support(ISO1, []) == 0
