"""Unit tests for de Bruijn graph simplification (tips, bubbles)."""

import pytest

from repro.trinity.chrysalis.debruijn import DeBruijnGraph, fasta_to_debruijn
from repro.trinity.chrysalis.simplify import (
    SimplifyConfig,
    pop_bubbles,
    prune_tips,
    simplify_graph,
)
from tests.graph_view import thread

K = 7
BACKBONE = "ATCGGATTACAGTCCGGTTAACGAGCTTGG"


def graph_with_tip():
    """Strong backbone + weak short dead-end branching off mid-way."""
    g = DeBruijnGraph(k=K)
    thread(g, BACKBONE, weight=10)
    branch_at = 12
    tip_seq = BACKBONE[branch_at - (K - 1) : branch_at] + "TTTT"  # diverges, dies
    thread(g, tip_seq, weight=1)
    return g


def graph_with_bubble():
    """Two parallel arms (one strong, one weak) between shared ends."""
    prefix = BACKBONE[:12]
    suffix = BACKBONE[18:]
    strong = prefix + "ACCTGA" + suffix
    weak = prefix + "ACGTGA" + suffix  # one-base difference mid-arm
    g = DeBruijnGraph(k=K)
    thread(g, strong, weight=10)
    thread(g, weak, weight=1)
    return g


class TestPruneTips:
    def test_weak_tip_removed(self):
        g = graph_with_tip()
        before = g.n_nodes
        stats = prune_tips(g)
        assert stats.tips_removed == 1
        assert g.n_nodes < before
        # The backbone must survive intact.
        assert BACKBONE in g.unitigs() or any(BACKBONE in u for u in g.unitigs())

    def test_strong_tip_kept(self):
        g = DeBruijnGraph(k=K)
        thread(g, BACKBONE, weight=1)
        branch_at = 12
        tip_seq = BACKBONE[branch_at - (K - 1) : branch_at] + "TTTT"
        thread(g, tip_seq, weight=5)  # stronger than the backbone
        stats = prune_tips(g)
        assert stats.tips_removed == 0

    def test_long_dead_end_kept(self):
        # A long alternative ending is a real isoform end, not a tip.
        g = DeBruijnGraph(k=K)
        thread(g, BACKBONE, weight=10)
        long_alt = BACKBONE[5 : 5 + (K - 1)] + "TTGACCGTAGGCTAACCGTTAGGCCTATG"
        thread(g, long_alt, weight=1)
        stats = prune_tips(g)
        assert stats.tips_removed == 0

    def test_linear_graph_untouched(self):
        g = fasta_to_debruijn([BACKBONE], K)
        stats = prune_tips(g)
        assert stats.nodes_removed == 0
        assert g.unitigs() == [BACKBONE]

    def test_idempotent(self):
        g = graph_with_tip()
        prune_tips(g)
        again = prune_tips(g)
        assert again.tips_removed == 0


class TestPopBubbles:
    def test_weak_arm_removed(self):
        g = graph_with_bubble()
        stats = pop_bubbles(g)
        assert stats.bubbles_popped == 1
        unitigs = g.unitigs()
        assert len(unitigs) == 1
        assert "ACCTGA" in unitigs[0]
        assert "ACGTGA" not in unitigs[0]

    def test_balanced_bubble_kept(self):
        prefix = BACKBONE[:12]
        suffix = BACKBONE[18:]
        g = DeBruijnGraph(k=K)
        thread(g, prefix + "ACCTGA" + suffix, weight=5)
        thread(g, prefix + "ACGTGA" + suffix, weight=5)  # genuine isoforms
        stats = pop_bubbles(g)
        assert stats.bubbles_popped == 0

    def test_linear_graph_untouched(self):
        g = fasta_to_debruijn([BACKBONE], K)
        assert pop_bubbles(g).bubbles_popped == 0


class TestSimplify:
    def test_combined(self):
        g = graph_with_tip()
        prefix = BACKBONE[:12]
        suffix = BACKBONE[18:]
        thread(g, prefix + "ACGTGA" + suffix, weight=1)
        stats = simplify_graph(g)
        assert stats.nodes_removed > 0

    def test_config_resolution(self):
        cfg = SimplifyConfig()
        assert cfg.resolved_tip_len(25) == 48
        assert SimplifyConfig(max_tip_nodes=5).resolved_tip_len(25) == 5

    def test_graph_still_spells_backbone(self):
        g = graph_with_tip()
        simplify_graph(g)
        spelled = "".join(g.unitigs())
        assert BACKBONE[:20] in spelled or BACKBONE in spelled
