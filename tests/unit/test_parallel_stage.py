"""Unit tests for the stage table's conventions.

Every row of ``STAGE_TABLE`` runs a body ``fn(comm, inputs, config=None)``,
defined in its namesake submodule beside the row's serial body
``serial(inputs, config=None, spans=None)``, whose inputs and config
bundles are exported, documented dataclasses, and no two rows share a
name, a key or a body.  The checks below state those rules once;
``TestRegistry`` holds the shipped table to them and ``TestDecorator``
shows each one rejects the bad row it exists for.
"""

import inspect
from dataclasses import dataclass, replace

from repro.obs.result import StageResult
from repro.parallel import STAGES, ParallelTrinityConfig
from repro.parallel.driver import STAGE_TABLE
from tests.unit.test_api_surface import _is_documented_export

STAGE_PARAMS = ("comm", "inputs", "config")
SERIAL_PARAMS = ("inputs", "config", "spans")


def _signature_faults(row):
    """The bodies' calling conventions: ``fn(comm, inputs, config=None)``
    in the submodule ``repro.parallel.<fn name>``, and beside it
    ``serial(inputs, config=None, spans=None)``."""
    faults = []
    for fn, names in ((row.fn, STAGE_PARAMS), (row.serial, SERIAL_PARAMS)):
        params = list(inspect.signature(fn).parameters.values())
        if tuple(p.name for p in params) != names:
            faults.append(f"{row.name}: signature {[p.name for p in params]}")
        elif any(p.default is not None for p in params[names.index("inputs") + 1 :]):
            faults.append(f"{row.name}: config has no None default")
    if row.fn.__module__ != f"repro.parallel.{row.fn.__name__}":
        faults.append(f"{row.name}: {row.fn.__name__} is not its submodule's namesake")
    if row.serial.__module__ != row.fn.__module__:
        faults.append(f"{row.name}: {row.serial.__name__} is not beside {row.fn.__name__}")
    return faults


def _bundle_faults(row, cfg):
    """The row's inputs type and the config its accessor builds are
    exported, documented dataclasses."""
    return [
        f"{row.name}: {bundle.__name__} is not an exported documented dataclass"
        for bundle in (row.inputs_type, type(row.config(cfg, None)))
        if not _is_documented_export(bundle)
    ]


def _duplicate_faults(rows):
    """Names, keys and bodies are each unique across the table."""
    faults = []
    for field in ("name", "key", "fn"):
        values = [getattr(row, field) for row in rows]
        faults += [
            f"duplicate {field} {value!r}"
            for i, value in enumerate(values)
            if value in values[:i]
        ]
    return faults


class TestRegistry:
    def test_all_shipped_stages_registered(self):
        """Six stages, six bodies: no variant rides along in the table
        (walk-only Butterfly is an input of chrysalis-backend)."""
        assert sorted(STAGES) == [
            "bowtie", "chrysalis-backend", "gff", "inchworm", "jellyfish", "rtt",
        ]
        assert len(STAGE_TABLE) == 6
        assert _duplicate_faults(STAGE_TABLE) == []

    def test_every_stage_conforms_to_protocol(self):
        for row in STAGE_TABLE:
            assert _signature_faults(row) == [], row.name

    def test_specs_carry_dataclass_bundle_types(self):
        cfg = ParallelTrinityConfig()
        for row in STAGE_TABLE:
            assert _bundle_faults(row, cfg) == [], row.name


@dataclass(frozen=True)
class _Inputs:
    """Test inputs bundle, not exported."""

    value: int = 0


class TestDecorator:
    """Each rule rejects a row that breaks it, and only that row."""

    ROW = STAGE_TABLE[0]

    def test_duplicate_name_rejected(self):
        twin = replace(STAGE_TABLE[1], name=self.ROW.name)
        rows = (self.ROW, twin, *STAGE_TABLE[2:])
        assert _duplicate_faults(rows) == [f"duplicate name {self.ROW.name!r}"]

    def test_wrong_signature_rejected(self):
        def bad(comm, reads, config=None):
            return StageResult(stage="x")

        faults = _signature_faults(replace(self.ROW, fn=bad))
        assert f"{self.ROW.name}: signature ['comm', 'reads', 'config']" in faults

    def test_config_without_none_default_rejected(self):
        def bad(comm, inputs, config):
            return StageResult(stage="x")

        faults = _signature_faults(replace(self.ROW, fn=bad))
        assert f"{self.ROW.name}: config has no None default" in faults

    def test_non_dataclass_bundle_rejected(self):
        cfg = ParallelTrinityConfig()
        for bad in (dict, _Inputs):
            faults = _bundle_faults(replace(self.ROW, inputs_type=bad), cfg)
            assert faults == [
                f"{self.ROW.name}: {bad.__name__} is not an exported documented dataclass"
            ]
