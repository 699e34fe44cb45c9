"""The checked-in ``BENCH_*.json`` files are data: frozen at PR 22, no
writer remains in the tree.  This check keeps them parseable and
well-formed so a stray edit shows up as a failure, not as a silently
shorter history."""

import json
from pathlib import Path

import pytest

HISTORIES = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


def test_the_seven_histories_are_present():
    assert [p.name for p in HISTORIES] == [
        "BENCH_butterfly.json", "BENCH_chrysalis.json", "BENCH_fig07.json",
        "BENCH_fig09.json", "BENCH_inchworm.json", "BENCH_inchworm_mpi.json",
        "BENCH_jellyfish.json",
    ]


@pytest.mark.parametrize("path", HISTORIES, ids=lambda p: p.name)
def test_history_is_well_formed(path):
    doc = json.loads(path.read_text())
    assert {"bench", "workload", "fields", "entries"} <= set(doc)
    assert doc["entries"]
    for entry in doc["entries"]:
        assert {"label", "timestamp", "points"} <= set(entry)
        assert entry["points"]
    labels = [entry["label"] for entry in doc["entries"]]
    assert len(labels) == len(set(labels))
