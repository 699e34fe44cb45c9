"""Per-read ReadsToTranscripts assignment and per-record text: the oracles
for ``repro.trinity.chrysalis.reads_to_transcripts.assignment_table`` (as
records, ``tests.helpers.assign_reads_batched``) and
``format_assignment_table``.

:func:`assign_read` is the scalar loop the batched kernel replaced, moved
here unchanged: one read at a time, one binary-search ``KmerMap.get`` per
k-mer position, plain dicts for the per-component counts and region
extents.  It is the readable specification of the assignment rule —
largest shared k-mer count, ties to the smallest component id — and every
``assign_read`` case in ``tests/unit/test_reads_to_transcripts.py`` runs
against it.  :func:`format_assignments` is the writer the columnar
formatter replaced (``ReadAssignment.to_line`` per record), also moved
unchanged, and :func:`parse_assignment` (``ReadAssignment.from_line``)
the parser the file tests read it back with: nothing in the pipeline
reads ``readsToComponents.out``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Union

import numpy as np

from repro.errors import PipelineError
from repro.seq.kmer_index import KmerMap
from repro.seq.kmers import kmer_array, revcomp_codes
from repro.seq.records import SeqRecord
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadAssignment,
    ReadsToTranscriptsConfig,
)


def assign_read(
    read_index: int,
    read: SeqRecord,
    kmer_to_component: KmerMap,
    cfg: ReadsToTranscriptsConfig,
) -> ReadAssignment:
    """Link one read to its best component."""
    arr = kmer_array(read.seq, cfg.k)
    if arr.size == 0:
        return ReadAssignment(read_index, read.name, -1, 0, 0, 0)
    canon = np.minimum(arr, revcomp_codes(arr, cfg.k))
    shared: Dict[int, int] = {}
    first_pos: Dict[int, int] = {}
    last_pos: Dict[int, int] = {}
    for pos, code in enumerate(canon.tolist()):
        comp = kmer_to_component.get(code, -1)
        if comp < 0:
            continue
        shared[comp] = shared.get(comp, 0) + 1
        if comp not in first_pos:
            first_pos[comp] = pos
        last_pos[comp] = pos
    if not shared:
        return ReadAssignment(read_index, read.name, -1, 0, 0, 0)
    # Largest shared count; ties -> smallest component id (deterministic).
    best = min(shared, key=lambda c: (-shared[c], c))
    if shared[best] < cfg.min_shared_kmers:
        return ReadAssignment(read_index, read.name, -1, 0, 0, 0)
    return ReadAssignment(
        read_index=read_index,
        read_name=read.name,
        component=best,
        shared_kmers=shared[best],
        region_start=first_pos[best],
        region_end=last_pos[best] + cfg.k,
    )


def assignment_line(a: ReadAssignment) -> str:
    """One ``readsToComponents.out`` line (no newline)."""
    return (
        f"{a.read_index}\t{a.read_name}\t{a.component}"
        f"\t{a.shared_kmers}\t{a.region_start}\t{a.region_end}"
    )


def format_assignments(assignments: Iterable[ReadAssignment]) -> str:
    """``readsToComponents.out`` text: one line per assignment."""
    return "".join(f"{assignment_line(a)}\n" for a in assignments)


def write_assignments(path: Union[str, Path], assignments: Iterable[ReadAssignment]) -> int:
    """Write :func:`format_assignments` of ``assignments``; returns the count."""
    assignments = list(assignments)
    Path(path).write_text(format_assignments(assignments), encoding="ascii")
    return len(assignments)


def parse_assignment(line: str) -> ReadAssignment:
    """One ``readsToComponents.out`` line back as its record."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 6:
        raise PipelineError(f"malformed assignment line: {line!r}")
    return ReadAssignment(
        read_index=int(parts[0]),
        read_name=parts[1],
        component=int(parts[2]),
        shared_kmers=int(parts[3]),
        region_start=int(parts[4]),
        region_end=int(parts[5]),
    )
