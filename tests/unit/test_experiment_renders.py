"""Unit tests: every experiment's render() is complete and well-formed.

Render output is the harness's user-facing deliverable (the rows/series
each paper figure reports), so malformed tables are product bugs.
"""

import re
from functools import lru_cache

import pytest

from repro.cluster.workload import build_workload
from repro.experiments import paper, run_experiment


@pytest.fixture(scope="module")
def workload():
    return build_workload(seed=0)


class TestScalingRenders:
    def test_fig07_contains_all_node_counts(self, workload):
        out = run_experiment("fig07", workload=workload).render()
        for nodes in paper.GFF_SWEEP_NODES:
            assert f"\n{nodes} " in out or f"\n{nodes}\t" in out or f"\n{nodes}  " in out
        assert "paper" in out

    def test_fig08_percentages_sum(self, workload):
        res = run_experiment("fig08", workload=workload)
        for p in res.points:
            loop1 = 100.0 * p.loop1_max / p.total_s
            loop2 = 100.0 * p.loop2_max / p.total_s
            nonpar = 100.0 - 100.0 * p.loops_share
            assert loop1 + loop2 + nonpar == pytest.approx(100.0, abs=0.01)

    def test_fig09_rows(self, workload):
        out = run_experiment("fig09", workload=workload).render()
        assert "kmer-assign" in out
        assert "concat" in out

    def test_fig10_rows(self):
        out = run_experiment("fig10").render()
        assert "PyFasta split" in out
        assert "SAM merge" in out

    def test_fig02_mentions_paper_hours(self):
        out = run_experiment("fig02").render()
        assert "~60" in out
        assert ">50" in out

    def test_fig11_compares_to_serial(self):
        out = run_experiment("fig11").render()
        assert "serial (Fig 2)" in out

    def test_headline_all_claims_present(self):
        out = run_experiment("headline").render()
        for phrase in ["GraphFromFasta", "ReadsToTranscripts", "Bowtie", "Chrysalis"]:
            assert phrase in out


#: Every analytic replay, with arguments that keep it quick (a render's
#: headers do not depend on them).
ANALYTIC = {
    "fig02": {},
    "fig03": {},
    "fig07": {},
    "fig08": {},
    "fig09": {},
    "fig10": {},
    "fig11": {},
    "headline": {},
    "abl-sched": {"nodes_list": (16,)},
    "abl-rtt-io": {},
    "abl-merge": {},
    "abl-chunksize": {"chunks_totals": (512,)},
    "robustness": {"seeds": (0,)},
    "fw-dynamic": {"nodes_list": (64,)},
    "fw-serial-regions": {"nodes_list": (16,)},
    "fw-striped-io": {},
}


#: The extension experiments: modelled sweeps plus one measured line.
EXTENSIONS = ("fig-butterfly", "fig-chrysalis", "fig-inchworm", "fig-jellyfish")


@lru_cache(maxsize=None)
def _render(exp_id):
    return run_experiment(exp_id, **ANALYTIC.get(exp_id, {})).render()


@pytest.mark.parametrize("exp_id", sorted(ANALYTIC) + list(EXTENSIONS))
def test_no_measured_header(exp_id):
    """A model's numbers sit under "modelled"; "measured" is for real runs.
    An extension's first table is its modelled sweep; fig-inchworm's
    second (the traced stages' critical paths) is a real run's."""
    lines = _render(exp_id).splitlines()
    headers = [h for h, rule in zip(lines, lines[1:]) if rule and not rule.strip("- ")]
    assert headers, "no table rendered"
    if exp_id in EXTENSIONS:
        headers = headers[:1]
    assert not any("measured" in h.split() for h in headers), headers


@pytest.mark.parametrize("exp_id", EXTENSIONS)
def test_one_measured_line_reads_identical(exp_id):
    """An extension's real launches print one line of virtual makespans,
    and more ranks (or the other deal) change no output."""
    lines = [line for line in _render(exp_id).splitlines() if line.startswith("measured (")]
    assert len(lines) == 1, lines
    assert re.match(r"measured \([\w -]+, virtual s\)", lines[0]), lines[0]
    assert lines[0].endswith(": identical"), lines[0]


class TestAblationRenders:
    def test_abl_dsk(self):
        out = run_experiment("abl-dsk", dataset="smoke").render()
        assert "jellyfish" in out
        assert "identical" in out

    def test_fw_renders_mention_paper_quotes(self):
        out = run_experiment("fw-dynamic", nodes_list=(64,)).render()
        assert "dynamic partitioning" in out
