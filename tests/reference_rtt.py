"""Per-read ReadsToTranscripts assignment: the oracle for
``repro.trinity.chrysalis.reads_to_transcripts.assign_reads_batched``.

This is the scalar loop the batched kernel replaced, moved here unchanged:
one read at a time, one binary-search ``KmerMap.get`` per k-mer position,
plain dicts for the per-component counts and region extents.  It is the
readable specification of the assignment rule — largest shared k-mer
count, ties to the smallest component id — and every ``assign_read`` case
in ``tests/unit/test_reads_to_transcripts.py`` runs against it.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

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
