"""Integration tests: the paper's central validation claim, as exact
invariants — the hybrid MPI+OpenMP stages compute what the serial ones
compute.

(The paper shows statistical equivalence because real Trinity is
nondeterministic across runs; our runs are seed-deterministic, so for a
fixed seed we can assert *exact* equality, which is strictly stronger.)

The property is stated once, per stage-table row: on one upstream chain
of the smoke library, the row's serial body and rank 0 of its MPI body
at 1, 3 and 8 ranks, under both deals, give equal outputs and equal file
bytes, and every rank agrees with rank 0; in both strand modes.  The classes after it compare
whole runs of the two drivers.
"""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from repro.mpi import mpirun
from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import (
    STAGE_TABLE,
    ParallelTrinityConfig,
    run_chain,
    serial_launcher,
)
from repro.trinity import TrinityConfig, TrinityPipeline
from repro.trinity.chrysalis.graph_from_fasta import WeldCandidate

DEALS = ("round_robin", "dynamic")
#: Output fields a rank holds for itself: its file paths, and the back
#: end's quantified graphs of the components it owns.
RANK_LOCAL = ("out_path", "part_path", "local_quants")


def _plain(value):
    """``value`` as plain comparable data: dataclasses by field (rank-local
    fields left out), arrays by dtype and bytes, welds as a multiset (the
    pooling collectives permute chunk order)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if is_dataclass(value):
        return tuple(
            (f.name, _plain(getattr(value, f.name)))
            for f in fields(value) if f.name not in RANK_LOCAL
        )
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_plain(item) for item in value]
        return sorted(items) if value and isinstance(value[0], WeldCandidate) else items
    return value


def _upstream(reads, root, strand_specific):
    """The serial chain on ``reads`` in one strand mode, and a directory
    for the rows' files."""
    trinity = TrinityConfig(seed=1, strand_specific=strand_specific)
    cfg = ParallelTrinityConfig(trinity=trinity, nthreads=2)
    return run_chain(cfg, reads, serial_launcher()), root


@pytest.fixture(scope="module")
def upstream(smoke_reads, tmp_path_factory):
    return _upstream(smoke_reads, tmp_path_factory.mktemp("rows"), strand_specific=False)


@pytest.fixture(scope="module")
def stranded_upstream(smoke_reads, tmp_path_factory):
    return _upstream(smoke_reads, tmp_path_factory.mktemp("stranded"), strand_specific=True)


def _row_equals_serial(chain, root, key, nprocs):
    row = next(row for row in STAGE_TABLE if row.key == key)
    inputs = row.inputs(chain)
    want = row.serial(inputs, row.config(chain.cfg, root / "serial"))
    configs = []
    for deal in DEALS:  # a row without a deal has one config for both
        config = row.config(replace(chain.cfg, butterfly_strategy=deal), root / f"{deal}{nprocs}")
        if config not in configs:
            configs.append(config)
    for config in configs:
        run = mpirun(row.fn, nprocs, inputs, config)
        assert run.makespan > 0  # the launch charged virtual time
        got = run.outputs[0].outputs
        assert _plain(got) == _plain(want), config
        for rank in run.outputs[1:]:
            assert _plain(rank.outputs) == _plain(got), rank.rank
        if hasattr(want, "local_quants"):
            union = {cid: q for rank in run.outputs for cid, q in rank.outputs.local_quants.items()}
            assert _plain(dict(sorted(union.items()))) == _plain(dict(sorted(want.local_quants.items())))
        if row.file_key:
            assert got.out_path.name == want.out_path.name
            assert got.out_path.read_bytes() == want.out_path.read_bytes()


@pytest.mark.timeout(300)
@pytest.mark.parametrize("nprocs", [1, 3, 8])
@pytest.mark.parametrize("key", [row.key for row in STAGE_TABLE])
def test_mpi_body_equals_serial_body(upstream, key, nprocs):
    _row_equals_serial(*upstream, key, nprocs)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("nprocs", [1, 3, 8])
@pytest.mark.parametrize("key", [row.key for row in STAGE_TABLE])
def test_mpi_body_equals_serial_body_strand_specific(stranded_upstream, key, nprocs):
    """The same on a strand-specific chain: every row reads the mode off
    the solid table it is handed."""
    chain, _root = stranded_upstream
    assert not chain.out("jellyfish").counts.canonical
    _row_equals_serial(*stranded_upstream, key, nprocs)


class TestThreadedInchwormBytes:
    """Inchworm threads own whole k-mer-graph components, so the whole
    driver stays byte-identical to the serial pipeline with them on."""

    @pytest.mark.timeout(300)
    def test_transcript_fasta_bytes_equal_serial(self, smoke_reads, tmp_path):
        trinity = TrinityConfig(seed=1, inchworm_threads=4)
        serial = TrinityPipeline(trinity).run(smoke_reads, workdir=tmp_path / "serial")
        want = serial.outputs.files["transcripts"].read_bytes()
        assert want
        for nprocs in (1, 3, 8):
            for strategy in ("round_robin", "dynamic"):
                wd = tmp_path / f"{strategy}-{nprocs}"
                par = ParallelTrinityDriver(
                    ParallelTrinityConfig(
                        trinity=trinity, nprocs=nprocs, nthreads=4,
                        butterfly_strategy=strategy,
                    )
                ).run(smoke_reads, workdir=wd)
                assert par.outputs.files["transcripts"].read_bytes() == want
                assert par.metrics["inchworm_threads"] == 4.0


class TestReadsWithN:
    """A library with a few ``N``-bearing reads runs end to end: at the
    parent QuantifyGraph raised on the first routed one (``mask length
    != window count``).  An ``N`` window is a gap, in the serial pipeline
    and on every rank alike, so the bytes still agree."""

    @pytest.mark.timeout(300)
    def test_serial_and_three_ranks_equal_bytes(self, smoke_reads, tmp_path):
        from repro.seq.records import SeqRecord

        reads = list(smoke_reads)
        for i, at in ((3, 0), (10, 30), (17, -1), (24, 40), (31, 12)):
            seq = reads[i].seq
            at %= len(seq)
            reads[i] = SeqRecord(reads[i].name, seq[:at] + "N" + seq[at + 1 :])
        trinity = TrinityConfig(seed=1)
        serial = TrinityPipeline(trinity).run(reads, workdir=tmp_path / "serial")
        routed = {a.read_index for a in serial.outputs.assignments if a.component >= 0}
        assert routed & {3, 10, 17, 24, 31}  # QuantifyGraph saw an N read
        assert not any("N" in t.seq for t in serial.outputs.transcripts)
        want = serial.outputs.files["transcripts"].read_bytes()
        assert want
        par = ParallelTrinityDriver(
            ParallelTrinityConfig(trinity=trinity, nprocs=3, nthreads=4)
        ).run(reads, workdir=tmp_path / "par")
        assert par.outputs.files["transcripts"].read_bytes() == want
        assert {c: (q.n_reads, q.read_edge_weight) for c, q in par.outputs.quants.items()} == {
            c: (q.n_reads, q.read_edge_weight) for c, q in serial.outputs.quants.items()
        }


class TestPairSteps:
    """Scaffold support and pair reconciliation run inside Bowtie and the
    back end; the driver writes what the serial pipeline writes."""

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("scaffolds", [True, False])
    def test_files_are_the_serial_runs(self, smoke_reads, tmp_path, scaffolds):
        """The same file keys — no ``bowtie_sam`` when the serial pipeline
        runs no Bowtie — and the same bytes in each."""
        trinity = TrinityConfig(seed=1, use_bowtie_scaffolds=scaffolds)
        serial = TrinityPipeline(trinity).run(smoke_reads, workdir=tmp_path / "serial")
        par = ParallelTrinityDriver(
            ParallelTrinityConfig(trinity=trinity, nprocs=3, nthreads=4)
        ).run(smoke_reads, workdir=tmp_path / "par")
        want, got = serial.outputs.files, par.outputs.files
        assert sorted(got) == sorted(want)
        assert ("bowtie_sam" in got) == scaffolds
        assert {k: p.read_bytes() for k, p in got.items()} == {
            k: p.read_bytes() for k, p in want.items()
        }
        assert len(par.children) == 5 + scaffolds

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("names", ["single-end", "malformed"])
    def test_odd_mate_names_equal_serial_bytes(self, smoke_reads, tmp_path, names):
        """Single-end names (no mate suffix) and malformed ones — a
        repeated ``/1``, lone ``/2``s, ``lib/a``-style and bare ``/1``
        names — give the serial ``Trinity.fasta`` at 1, 3 and 8 ranks."""
        from repro.seq.records import SeqRecord

        def rename(i, name):
            if names == "single-end":
                return f"solo{i}"
            return {0: "/1", 1: "/2", 2: "lib/a", 3: name.replace("/1", "/2")}.get(i % 11, name)

        reads = [SeqRecord(rename(i, r.name), r.seq) for i, r in enumerate(smoke_reads)]
        trinity = TrinityConfig(seed=1)
        want = (
            TrinityPipeline(trinity).run(reads, workdir=tmp_path / "serial")
            .outputs.files["transcripts"].read_bytes()
        )
        for nprocs in (1, 3, 8):
            par = ParallelTrinityDriver(
                ParallelTrinityConfig(trinity=trinity, nprocs=nprocs, nthreads=4)
            ).run(reads, workdir=tmp_path / f"par{nprocs}")
            assert par.outputs.files["transcripts"].read_bytes() == want, nprocs
