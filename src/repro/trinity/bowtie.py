"""A Bowtie-like seed-and-extend short-read aligner, batched.

Trinity uses Bowtie (a third-party tool) to align the input reads to the
Inchworm contigs; read pairs whose mates land on the single ends of two
different contigs contribute scaffolding welds to Chrysalis (paper
SS:III.A).  This module provides the same interface surface: build an
index over a contig FASTA, align reads to SAM, and extract scaffold pairs
from the alignments.

Substitution note: real Bowtie is an FM-index aligner; a seed-and-extend
aligner has the same inputs, outputs and accuracy regime at our error
rates, and — crucially for the reproduction — the same *parallel
structure*: per-target-piece indexes can be built and queried
independently, which is what the paper's PyFasta split exploits.

The aligner works on whole batches of reads, and is cut where the MPI
Bowtie cuts it (merAligner's separation: seeds extracted once, looked up
in aggregated batches against a partitioned seed index):

:class:`ReadSeeds`
    The read side, independent of any index: both orientations' bytes
    and, per orientation, the ``n_seed_offsets`` seed codes with their
    read offsets, sorted by code.  Only the selected windows are packed;
    tables of consecutive read blocks stitch into the library's.
:class:`BowtieIndex`
    The target side: every seed window of the contigs as sorted parallel
    arrays (seed code, contig index, position) plus the contigs as one
    byte text — the sorted-array idiom of :mod:`repro.seq.kmer_index`,
    with duplicate codes kept (a seed may occur at many positions).
:func:`align_seeds`
    Looks the index's distinct codes up in the sorted read seeds (one
    ``searchsorted`` pair: a probe costs what the index holds), expands
    the candidates, bounds-filters, dedups ``(read, contig, start)``,
    counts mismatches in flat compares + ``reduceat`` and keeps, per read
    and orientation, the minimum by ``(mismatches, contig, start)``.
:class:`BestHits`
    Those minima, rows with a hit only.  :meth:`BestHits.best` is also
    the reduction across target pieces, and :func:`read_hits` applies
    the orientation rule (forward preferred on equal mismatches): one
    :data:`READ_HIT` row per read, the columns scaffold support is
    counted from (:func:`scaffold_support`) and SAM is rendered from
    (:func:`format_hits`).

Seed coordinates are window *starts* on both sides, so an ``N`` — which
drops the windows covering it — shifts no other seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import ASCII_TO_CODE, reverse_complement
from repro.seq.kmer_index import sorted_rows
from repro.seq.kmers import clean_window_runs, kmer_windows_batch, pack_windows_at
from repro.seq.records import Contig, SeqRecord, mate_index
from repro.seq.sam import FLAG_REVERSE, FLAG_UNMAPPED, SamRecord, sam_header

#: Bases compared per flat mismatch pass.  Bounds the transient index
#: arrays of :func:`_hamming_distances` (~17 bytes per base) however many
#: candidates a batch expands to and however many rank threads verify at
#: the same time.
_VERIFY_BASES = 1 << 14


@dataclass(frozen=True)
class BowtieConfig:
    """Aligner parameters (seed length mirrors bowtie -l default 28,
    shortened for 75 bp simulated reads)."""

    seed_len: int = 20
    max_mismatches: int = 3
    n_seed_offsets: int = 3  # distinct seed positions tried per read

    def __post_init__(self) -> None:
        if self.seed_len < 8:
            raise PipelineError(f"seed_len too small: {self.seed_len}")
        if self.max_mismatches < 0:
            raise PipelineError("max_mismatches must be >= 0")


class BowtieIndex:
    """Sorted-array seed index over a set of target contigs.

    ``seed_codes`` (sorted, duplicates kept), ``seed_contig`` and
    ``seed_pos`` are parallel: one entry per clean seed window.  Contig ``i`` is
    ``text[offsets[i] : offsets[i] + lengths[i]]``.
    """

    def __init__(self, contigs: Sequence[Contig], cfg: Optional[BowtieConfig] = None):
        self.cfg = cfg or BowtieConfig()
        self.contigs = list(contigs)
        seqs = [c.seq for c in self.contigs]
        self.lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        self.offsets = np.cumsum(self.lengths) - self.lengths
        self.text = np.frombuffer("".join(seqs).encode(), dtype=np.uint8)
        codes, contig, pos = kmer_windows_batch(seqs, self.cfg.seed_len)
        order = np.argsort(codes)
        self.seed_codes = codes[order]
        self.seed_contig = contig[order].astype(np.int32)
        self.seed_pos = pos[order].astype(np.int32)

    def header(self) -> List[str]:
        return sam_header([(c.name, len(c.seq)) for c in self.contigs])


@dataclass(frozen=True)
class ReadSeeds:
    """The read side of a batch alignment; depends on no index.

    Row ``o * n_reads + i`` is read ``i`` in orientation ``o`` (0 forward,
    1 reverse complement): ``text[starts[row] : starts[row] + lengths[row]]``.
    ``seed_codes``/``seed_rows``/``seed_offsets`` are parallel and sorted
    by code: a row's seeds are its clean windows at ranks
    ``np.linspace(0, n - 1, min(n_seed_offsets, n)).astype(int)`` among
    its ``n`` clean windows, and ``seed_offsets`` their start bases in
    the row.
    """

    n_reads: int
    seed_len: int
    text: np.ndarray  # uint8: the forward reads, then their reverse complements
    starts: np.ndarray  # int64, per row
    lengths: np.ndarray  # int64, per row
    seed_codes: np.ndarray  # uint64, ascending
    seed_rows: np.ndarray  # int32
    seed_offsets: np.ndarray  # int32

    @classmethod
    def build(cls, reads: Sequence[SeqRecord], cfg: BowtieConfig) -> "ReadSeeds":
        s = cfg.seed_len
        seqs = [r.seq for r in reads]
        # Rows are joined by ``N`` so that no clean window spans two of
        # them; the reverse complement of the joined forward text holds
        # every read's reverse complement, in mirrored order.
        fwd = "N".join(seqs)
        text = np.frombuffer(f"{fwd}N{reverse_complement(fwd)}".encode(), dtype=np.uint8)
        lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        fwd_starts = np.cumsum(lens + 1) - (lens + 1)
        starts = np.concatenate((fwd_starts, text.size - fwd_starts - lens))
        lengths = np.concatenate((lens, lens))
        codes = ASCII_TO_CODE[text]
        # Separators bracket every row, so a run of clean windows lies in
        # one row: a row's windows are numbers first .. first + n_clean - 1.
        run_starts, before = clean_window_runs(codes, s)
        first = before[np.searchsorted(run_starts, starts)]
        n_clean = before[np.searchsorted(run_starts, starts + lengths)] - first
        seed_rows = [np.empty(0, dtype=np.int64)]
        seed_at = [np.empty(0, dtype=np.int64)]  # the seeds' start bases in text
        # One np.linspace per distinct window count (a single one for
        # equal-length reads without N) keeps its rounding exactly.
        for n in np.flatnonzero(np.bincount(n_clean[n_clean > 0])).tolist():
            of_n = np.flatnonzero(n_clean == n)
            ranks = np.linspace(0, n - 1, min(cfg.n_seed_offsets, n)).astype(int)
            nth = (first[of_n][:, None] + ranks).ravel()
            run = np.searchsorted(before, nth, side="right") - 1
            seed_rows.append(np.repeat(of_n, ranks.size))
            seed_at.append(run_starts[run] + nth - before[run])
        seed_rows, seed_at = np.concatenate(seed_rows), np.concatenate(seed_at)
        seed_codes = pack_windows_at(codes, seed_at, s)
        order = np.argsort(seed_codes)
        return cls(
            n_reads=len(seqs),
            seed_len=s,
            text=text,
            starts=starts,
            lengths=lengths,
            seed_codes=seed_codes[order],
            seed_rows=seed_rows[order].astype(np.int32),
            seed_offsets=(seed_at - starts[seed_rows])[order].astype(np.int32),
        )

    @classmethod
    def stitch(cls, blocks: Sequence["ReadSeeds"]) -> "ReadSeeds":
        """The table of all the reads from the tables of consecutive
        blocks of them (one at least): texts end to end, rows renumbered
        to the library's (every forward row first), seeds merged by code."""
        n = sum(b.n_reads for b in blocks)
        first = np.cumsum([0] + [b.n_reads for b in blocks])
        text_at = np.cumsum([0] + [b.text.size for b in blocks])

        def by_row(field: str, shift: Sequence[int]) -> np.ndarray:
            # The blocks' forward rows in block order, then their reverse ones.
            return np.concatenate([
                getattr(b, field)[o * b.n_reads : (o + 1) * b.n_reads] + at
                for o in (0, 1) for b, at in zip(blocks, shift)
            ])

        # A block's reverse rows move n - n_reads on.
        seed_rows = np.concatenate([
            b.seed_rows + at + np.where(b.seed_rows >= b.n_reads, n - b.n_reads, 0)
            for b, at in zip(blocks, first)
        ])
        cat = lambda field: np.concatenate([getattr(b, field) for b in blocks])
        codes = cat("seed_codes")
        order, codes = sorted_rows((np.arange(codes.size), codes))  # ties keep block order
        return cls(
            n, blocks[0].seed_len, cat("text"), by_row("starts", text_at),
            by_row("lengths", [0] * len(blocks)), codes, seed_rows[order].astype(np.int32),
            cat("seed_offsets")[order],
        )


@dataclass(frozen=True)
class BestHits:
    """Best alignment of every :class:`ReadSeeds` row that has one.

    Parallel ``int32`` arrays with ``rows`` strictly increasing; a row's
    entry is its minimum by ``(mm, contig, pos)`` — the serial tie-break.
    ``n_seed_lookups`` counts the distinct index codes probed,
    ``n_seed_hits`` the index entries that read seeds matched and
    ``n_verified`` the distinct in-bounds ``(row, contig, start)``
    candidates compared base by base: the work done, which a split of the
    target partitions exactly (lookups: up to codes pieces share).
    """

    rows: np.ndarray
    contig: np.ndarray
    pos: np.ndarray
    mm: np.ndarray
    n_seed_hits: int = 0
    n_verified: int = 0
    n_seed_lookups: int = 0

    @classmethod
    def best(
        cls,
        rows: np.ndarray,
        contig: np.ndarray,
        pos: np.ndarray,
        mm: np.ndarray,
        n_seed_hits: int = 0,
        n_verified: int = 0,
        n_seed_lookups: int = 0,
    ) -> "BestHits":
        """Reduce alignments (any order, any number per row) to each row's
        lexicographic minimum ``(mm, contig, pos)``."""
        pos, contig, mm, rows = sorted_rows((pos, contig, mm, rows))
        lead = np.ones(rows.size, dtype=bool)
        lead[1:] = rows[1:] != rows[:-1]
        return cls(
            *(a[lead].astype(np.int32) for a in (rows, contig, pos, mm)),
            n_seed_hits=n_seed_hits,
            n_verified=n_verified,
            n_seed_lookups=n_seed_lookups,
        )


def _hamming_distances(
    read_seeds: ReadSeeds,
    index: BowtieIndex,
    rows: np.ndarray,
    contig: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """Hamming distance of each candidate row against its contig window.

    A block of candidates is laid out as one flat run of base pairs —
    every candidate's read bytes against its contig bytes — compared at
    once and summed per candidate with ``np.add.reduceat``.
    """
    mm = np.empty(rows.size, dtype=np.int32)
    if rows.size == 0:
        return mm
    lengths = read_seeds.lengths[rows]
    in_read = read_seeds.starts[rows]
    to_contig = index.offsets[contig] + start - in_read
    block = max(1, _VERIFY_BASES // int(lengths.max()))
    for a in range(0, rows.size, block):
        part = slice(a, a + block)
        n = lengths[part]
        seg = np.cumsum(n) - n
        r_idx = np.repeat(in_read[part] - seg, n) + np.arange(int(n.sum()))
        differ = read_seeds.text[r_idx] != index.text[r_idx + np.repeat(to_contig[part], n)]
        mm[part] = np.add.reduceat(differ, seg, dtype=np.int32)
    return mm


def align_seeds(read_seeds: ReadSeeds, index: BowtieIndex) -> BestHits:
    """Align every row of ``read_seeds`` against ``index``.

    Per row, the best ``(contig, pos, mm)`` over the candidates its seeds
    propose, ``mm <= max_mismatches``; contig indices are the index's own.
    """
    cfg = index.cfg
    if read_seeds.seed_len != cfg.seed_len:
        raise PipelineError(
            f"read seeds of length {read_seeds.seed_len} against an index of "
            f"seed_len {cfg.seed_len}"
        )
    # Every read seed under every index entry of its code (the cross
    # product of the code's two runs), found from the index's side.
    codes, runs, n_entries = np.unique(index.seed_codes, return_index=True, return_counts=True)
    lo = np.searchsorted(read_seeds.seed_codes, codes, side="left")
    n_seeds = np.searchsorted(read_seeds.seed_codes, codes, side="right") - lo
    pairs = n_seeds * n_entries
    n_seed_hits = int(pairs.sum())
    code = np.repeat(np.arange(pairs.size), pairs)
    nth = np.arange(n_seed_hits) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    seed = lo[code] + nth // n_entries[code]
    entry = runs[code] + nth % n_entries[code]
    rows = read_seeds.seed_rows[seed]
    contig = index.seed_contig[entry]
    start = index.seed_pos[entry] - read_seeds.seed_offsets[seed]
    inside = (start >= 0) & (start + read_seeds.lengths[rows] <= index.lengths[contig])
    rows, contig, start = rows[inside], contig[inside], start[inside]
    # Seeds of one read mostly propose the same placement: verify it once.
    start, contig, rows = sorted_rows((start, contig, rows))
    distinct = np.ones(rows.size, dtype=bool)
    distinct[1:] = (
        (rows[1:] != rows[:-1]) | (contig[1:] != contig[:-1]) | (start[1:] != start[:-1])
    )
    rows, contig, start = rows[distinct], contig[distinct], start[distinct]
    mm = _hamming_distances(read_seeds, index, rows, contig, start)
    ok = mm <= cfg.max_mismatches
    return BestHits.best(
        rows[ok], contig[ok], start[ok], mm[ok],
        n_seed_hits=n_seed_hits, n_verified=int(rows.size), n_seed_lookups=int(runs.size),
    )


#: One read's alignment as columns: ``contig`` (-1 = unmapped), the
#: 0-based ``pos``, the strand and the mismatch count.
READ_HIT = np.dtype([("contig", "<i4"), ("pos", "<i4"), ("reverse", "?"), ("mm", "<i2")])


def read_hits(hits: BestHits, n: int) -> np.ndarray:
    """The :data:`READ_HIT` row of each of ``n`` reads from its rows'
    bests (numbered as in :class:`ReadSeeds`): forward wins on equal
    mismatches, no hit in either orientation is unmapped."""
    chosen = np.full(n, -1, dtype=np.int64)  # index into hits, -1 = unmapped
    n_fwd = int(np.searchsorted(hits.rows, n))
    chosen[hits.rows[n_fwd:] - n] = np.arange(n_fwd, hits.rows.size)
    fwd_reads = hits.rows[:n_fwd]
    rev = chosen[fwd_reads]
    fwd_wins = (rev < 0) | (hits.mm[:n_fwd] <= hits.mm[rev])
    chosen[fwd_reads[fwd_wins]] = np.flatnonzero(fwd_wins)
    out = np.zeros(n, dtype=READ_HIT)
    out["contig"] = -1
    mapped = chosen >= 0
    h = chosen[mapped]
    for field, column in zip(READ_HIT.names, (hits.contig[h], hits.pos[h], h >= n_fwd, hits.mm[h])):
        out[field][mapped] = column
    return out


def hit_records(
    reads: Sequence[SeqRecord], hits: np.ndarray, contig_names: Sequence[str]
) -> List[SamRecord]:
    """The SAM record of each read from its :data:`READ_HIT` row;
    ``contig_names[idx]`` names contig ``idx`` of ``hits["contig"]``."""
    records = []
    for read, contig, pos, reverse, mm in zip(reads, *(hits[f].tolist() for f in READ_HIT.names)):
        if contig < 0:
            records.append(SamRecord(read.name, FLAG_UNMAPPED, "*", 0, 0, "*", read.seq))
        else:  # SAM positions are 1-based
            seq = reverse_complement(read.seq) if reverse else read.seq
            flag = FLAG_REVERSE if reverse else 0
            records.append(SamRecord(
                read.name, flag, contig_names[contig], pos + 1, 255, f"{len(seq)}M", seq, mm
            ))
    return records


def format_hits(
    reads: Sequence[SeqRecord],
    hits: np.ndarray,
    contig_names: Sequence[str],
    header: Sequence[str] = (),
) -> bytes:
    """SAM text: the ``header`` lines, then the line of each read's
    :data:`READ_HIT` row — :func:`hit_records`' records as text, one
    f-string a line and no record built."""
    lines = [f"{line}\n" for line in header]
    for read, contig, pos, reverse, mm in zip(reads, *(hits[f].tolist() for f in READ_HIT.names)):
        if contig < 0:
            lines.append(f"{read.name}\t{FLAG_UNMAPPED}\t*\t0\t0\t*\t*\t0\t0\t{read.seq}\t*\n")
        else:
            seq = reverse_complement(read.seq) if reverse else read.seq
            lines.append(
                f"{read.name}\t{FLAG_REVERSE if reverse else 0}\t{contig_names[contig]}"
                f"\t{pos + 1}\t255\t{len(seq)}M\t*\t0\t0\t{seq}\t*\tNM:i:{mm}\n"
            )
    return "".join(lines).encode("ascii")


def scaffold_support(
    hits: np.ndarray,
    read_lengths: np.ndarray,
    contig_lengths: np.ndarray,
    mates: np.ndarray,
    end_window: int = 300,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pairs, counts)``: each contig pair ``(a, b)``, ``a < b``, and how
    many of ``mates`` (rows of read indices) span it — align to ``a`` and
    to ``b`` (``hits``: :data:`READ_HIT` rows), each mate within
    ``end_window`` of a contig end (paper SS:III.A)."""
    mates = mates.reshape(-1, 2)
    contig = hits["contig"][mates].astype(np.int64)
    start = hits["pos"][mates].astype(np.int64)
    length = contig_lengths[np.maximum(contig, 0)] if contig_lengths.size else contig
    near = (contig >= 0) & (
        (start < end_window) | (start + read_lengths[mates] > length - end_window)
    )
    span = near.all(axis=1) & (contig[:, 0] != contig[:, 1])
    pairs, counts = np.unique(np.sort(contig[span], axis=1), axis=0, return_counts=True)
    return pairs.reshape(-1, 2), counts


def supported_pairs(
    pairs: np.ndarray, counts: np.ndarray, min_support: int = 2
) -> List[Tuple[int, int]]:
    """The keyed sum of ``counts`` over equal rows of ``pairs`` (pieces of
    :func:`scaffold_support` in any number and order): the pairs it takes
    to ``min_support`` or more, ascending."""
    keys, inverse = np.unique(pairs.reshape(-1, 2), axis=0, return_inverse=True)
    total = np.bincount(inverse.ravel(), weights=counts, minlength=len(keys))
    return [(a, b) for a, b in keys[total >= min_support].tolist()]


def scaffold_pairs_from_sam(
    records: Sequence[SamRecord],
    contig_name_to_idx: Dict[str, int],
    end_window: int = 300,
    contig_lengths: Optional[Dict[str, int]] = None,
    min_support: int = 2,
) -> List[Tuple[int, int]]:
    """:func:`supported_pairs` of :func:`scaffold_support` over SAM records,
    mates joined over the mapped ones.  A mapped record whose contig has
    no index or, with ``contig_lengths``, no length spans nothing; without
    them every placement is near an end (its end is past ``-end_window``)."""
    if contig_lengths is None:
        contig_lengths = dict.fromkeys(contig_name_to_idx, -end_window)
    index = {n: i for n, i in contig_name_to_idx.items() if n in contig_lengths}
    lengths = np.zeros(max(contig_name_to_idx.values(), default=-1) + 1, dtype=np.int64)
    lengths[list(index.values())] = [contig_lengths[n] for n in index]
    hits = np.zeros(len(records), dtype=READ_HIT)
    hits["contig"] = [-1 if r.is_unmapped else index.get(r.rname, -1) for r in records]
    hits["pos"] = [r.pos - 1 for r in records]
    read_lengths = np.array([len(r.seq) for r in records], dtype=np.int64)
    mapped = np.flatnonzero([not r.is_unmapped for r in records])
    mates = mapped[mate_index([records[i].qname for i in mapped.tolist()])]
    return supported_pairs(
        *scaffold_support(hits, read_lengths, lengths, mates, end_window), min_support
    )
