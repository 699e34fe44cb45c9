"""Property: the columnar text formatters equal their per-record oracles.

``format_hits`` renders SAM straight from ``READ_HIT`` rows and
``format_assignment_table`` renders ``readsToComponents.out`` straight
from ReadsToTranscripts' integer rows; neither builds a record.  Each must
give, byte for byte, what the per-record writer it replaced gives
(``tests/reference_sam.py``, ``tests/reference_rtt.py``) over the records
built from the same rows (``hit_records``, ``assignment_records``).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import mpirun
from repro.parallel.component_stage import lpt_assign
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieStageConfig, mpi_bowtie
from repro.seq.records import SeqRecord
from repro.seq.sam import sam_header
from repro.trinity.bowtie import (
    READ_HIT,
    BowtieIndex,
    ReadSeeds,
    align_seeds,
    format_hits,
    hit_records,
)
from repro.trinity.chrysalis.reads_to_transcripts import (
    assignment_records,
    format_assignment_table,
)
from tests.helpers import bowtie_align, sam_records
from tests.property.test_bowtie_prop import alignment_cases
from tests.reference_rtt import format_assignments
from tests.reference_sam import format_sam

NAMES = st.text(alphabet="abcxyz019/_.:", min_size=1, max_size=8)


@st.composite
def hit_cases(draw):
    """Reads holding ``N`` (some empty), contig names (possibly none: every
    read unmapped) and one ``READ_HIT`` row per read — unmapped, forward
    or reverse, ``mm`` from 0 to ``max_mismatches`` — plus an optional
    header."""
    max_mismatches = draw(st.integers(0, 3))
    contig_names = draw(st.lists(NAMES, max_size=4))
    reads = [
        SeqRecord(name, seq)
        for name, seq in draw(
            st.lists(st.tuples(NAMES, st.text(alphabet="ACGTN", max_size=30)), max_size=12)
        )
    ]
    hits = np.zeros(len(reads), dtype=READ_HIT)
    for row in hits:
        contig = draw(st.integers(-1, len(contig_names) - 1))
        row["contig"] = contig
        if contig >= 0:
            row["pos"] = draw(st.integers(0, 10_000))
            row["reverse"] = draw(st.booleans())
            row["mm"] = draw(st.integers(0, max_mismatches))
    header = sam_header([(n, draw(st.integers(1, 500))) for n in contig_names])
    return reads, hits, contig_names, draw(st.sampled_from([(), header]))


@settings(max_examples=200, deadline=None)
@given(hit_cases())
def test_format_hits_is_the_record_oracles_text(case):
    reads, hits, contig_names, header = case
    want = format_sam(hit_records(reads, hits, contig_names), header).encode()
    assert format_hits(reads, hits, contig_names, header) == want


@settings(max_examples=40, deadline=None)
@given(alignment_cases(), st.integers(1, 5))
def test_stage_files_are_the_record_oracles_text(case, nprocs):
    """The stage's files (pieces with no contigs when ``nprocs`` exceeds
    them): part ``r`` is the oracle's text of every read against piece
    ``r`` alone, and ``bowtie.sam`` the oracle's text of the single-index
    records after the header."""
    contigs, reads, cfg = case
    pieces = lpt_assign([len(c.seq) for c in contigs], range(len(contigs)), nprocs)
    seeds = ReadSeeds.build(reads, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        mpirun(
            mpi_bowtie, nprocs, BowtieInputs(reads=reads, contigs=contigs),
            BowtieStageConfig(bowtie=cfg, workdir=workdir),
        )
        for rank, piece in enumerate(pieces):
            alone = [contigs[g] for g in sorted(piece)]
            records = sam_records(
                reads, align_seeds(seeds, BowtieIndex(alone, cfg)), [c.name for c in alone]
            )
            part = (workdir / f"bowtie.part{rank}.sam").read_bytes()
            assert part == format_sam(records).encode()
        header = BowtieIndex(contigs, cfg).header()
        merged = format_sam(bowtie_align(reads, contigs, cfg), header).encode()
        assert (workdir / "bowtie.sam").read_bytes() == merged


@st.composite
def assignment_tables(draw):
    """Rows ``(index, component, shared, start, end)`` in a narrow signed
    type, as RTT ships them: ascending indices, component ``-1`` with
    zeros (unassigned) or an id with its count and region."""
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32]))
    top = int(np.iinfo(dtype).max)
    n = draw(st.integers(0, 12))
    indices = sorted(draw(st.sets(st.integers(0, top), min_size=n, max_size=n)))
    rows = []
    for i in indices:
        if draw(st.booleans()):
            rows.append((i, -1, 0, 0, 0))
        else:
            start = draw(st.integers(0, top))
            rows.append((
                i, draw(st.integers(0, top)), draw(st.integers(1, top)),
                start, draw(st.integers(start, top)),
            ))
    names = draw(st.lists(NAMES, min_size=n, max_size=n))
    return names, np.array(rows, dtype=np.int64).reshape(-1, 5), dtype


@settings(max_examples=200, deadline=None)
@given(assignment_tables())
def test_format_assignment_table_is_the_record_oracles_text(case):
    names, wide, dtype = case
    want = format_assignments(assignment_records(names, wide)).encode()
    assert format_assignment_table(names, wide.astype(dtype)) == want
