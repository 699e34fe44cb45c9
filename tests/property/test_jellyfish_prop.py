"""Property: range-owned Jellyfish hands on exactly the serial solid table.

Over drawn reads, ``mpi_jellyfish`` at any rank count must give every
rank ``jellyfish_count(...).filtered(min_kmer_count)``, write the serial
dump of the *unfiltered* count byte for byte, and report the distinct
count as ``n_kmers`` — whatever the batch size, strand mode or threshold.
The reads are drawn to reach the cases range ownership can get wrong:
no reads, every read shorter than k, all-``N`` reads, one k-mer repeated
so that every splitter ties, fewer distinct codes than ranks (empty
owner ranges), and no k-mer reaching the threshold.

Hand mutants of ``repro/parallel/mpi_jellyfish.py`` this file kills:
the gather without the solid filter; the dump rendered from the solid
slice; the owners' slices joined out of rank order (reversed); a lone
received part dropped instead of taken as it is; the splitters' slices
cut with ``side="right"`` on odd ranks only (a tied code counted at two
owners); ``n_kmers`` read from the gathered solid table.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import mpirun
from repro.parallel.mpi_jellyfish import (
    JellyfishInputs,
    JellyfishStageConfig,
    mpi_jellyfish,
    serial_jellyfish,
)
from repro.seq.records import SeqRecord
from repro.trinity.jellyfish import JellyfishConfig, jellyfish_count

K = 5


def _dna(alphabet="ACGT", lo=0, hi=30):
    return st.text(alphabet, min_size=lo, max_size=hi)


@st.composite
def read_sets(draw):
    shape = draw(st.sampled_from([
        "mixed", "mixed", "mixed", "none", "short", "all_n", "one_kmer", "few", "unique",
    ]))
    if shape == "none":
        seqs = []
    elif shape == "short":
        seqs = draw(st.lists(_dna(hi=K - 1), min_size=1, max_size=6))
    elif shape == "all_n":
        seqs = draw(st.lists(_dna("N", K, 20), min_size=1, max_size=4))
    elif shape == "one_kmer":
        # One k-mer many times over: every rank's sample is the one code.
        kmer = draw(_dna(lo=K, hi=K))
        seqs = [kmer] * draw(st.integers(1, 12))
    elif shape == "few":
        # Two or three distinct k-mers at most, spread over up to 8 ranks.
        seqs = draw(st.lists(st.sampled_from(["AAAAA", "ACGTA", "CCCCCA"]), min_size=1, max_size=9))
    elif shape == "unique":
        # Distinct random reads: at k 5 over 40 bases most k-mers are singletons.
        seqs = draw(st.lists(_dna(lo=K, hi=12), min_size=1, max_size=4, unique=True))
    else:
        seqs = draw(st.lists(_dna("ACGTN", hi=40), max_size=14))
        seqs += draw(st.lists(st.sampled_from(seqs), max_size=6)) if seqs else []
    return [SeqRecord(f"r{i}", seq) for i, seq in enumerate(seqs)]


@settings(max_examples=120, deadline=None)
@given(
    read_sets(),
    st.integers(1, 8),
    st.sampled_from([1, 7, 4_000_000]),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
)
def test_range_owners_hand_on_the_serial_solid_table(reads, nprocs, batch_bases, min_count, canonical):
    jcfg = JellyfishConfig(k=K, canonical=canonical, batch_bases=batch_bases)
    full = jellyfish_count(reads, K, canonical=canonical, batch_bases=batch_bases)
    with tempfile.TemporaryDirectory() as tmp:
        serial = serial_jellyfish(
            JellyfishInputs(reads=reads),
            JellyfishStageConfig(jellyfish=jcfg, min_kmer_count=min_count, workdir=Path(tmp) / "s"),
        )
        run = mpirun(
            mpi_jellyfish, nprocs, JellyfishInputs(reads=reads),
            JellyfishStageConfig(jellyfish=jcfg, min_kmer_count=min_count, workdir=Path(tmp) / "p"),
        )
        assert serial.counts == full.filtered(min_count)
        for r in run.outputs:
            assert r.outputs.counts == full.filtered(min_count)
            assert r.metrics["n_kmers"] == len(full)
        assert run.outputs[0].outputs.out_path.read_bytes() == serial.out_path.read_bytes()
