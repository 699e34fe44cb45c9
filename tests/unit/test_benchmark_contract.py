"""The pipeline benchmark's reads of the stage table, pinned in tier-1.

``benchmarks/pipeline`` launches every stage through ``STAGES`` and names
its layers in ``spec.STAGE_LAYERS``; its own suite sits outside the
tier-1 test paths, so a renamed stage, label or accessor would otherwise
only show there.  Read-only: nothing here runs the benchmark.
"""

from benchmarks.pipeline import spec
from repro.parallel import STAGES, ParallelTrinityConfig


def test_layers_are_the_stages():
    assert set(STAGES) == set(spec.STAGE_LAYERS)


def test_layer_monitor_and_prefix_are_the_row_label_and_key():
    for name, (monitor, prefix, _regions) in spec.STAGE_LAYERS.items():
        assert (monitor, prefix) == (STAGES[name].label, STAGES[name].key), name


def test_stage_config_accessors_exist():
    cfg = ParallelTrinityConfig()
    for row in STAGES.values():
        assert callable(getattr(cfg, f"{row.key}_stage")), row.key
