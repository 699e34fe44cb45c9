"""Property: both drivers assemble sanitised reads, in whatever case they came.

Reads and their lower-case twins (any share of the reads, each base
lower-cased or not as drawn) give a byte-identical ``Trinity.fasta``
through ``TrinityPipeline`` and through ``ParallelTrinityDriver``.  A read
holding any character outside ``ACGTNacgtn`` raises ``SequenceError``,
naming the read, before any stage is launched.

Hand mutants of the sanitising pass (``repro.seq.records.sanitize_reads``
and its call in ``repro.parallel.driver.run_chain``) this file kills:
the call dropped (GFF's read support does not fold case, so the twins
weld fewer pairs); the one-pass check passing lower case through
(``translate(None, b"ACGTNacgtn")``); the error raised without the
read's name.
"""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SequenceError
from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import ParallelTrinityConfig, run_chain
from repro.seq.records import SeqRecord
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig, TrinityPipeline

CFG = TrinityConfig(seed=3)
READS = flatten_reads(get_recipe("smoke").materialize(seed=3)[1])


def _assemblies(reads, tmp):
    """``Trinity.fasta`` bytes of the serial pipeline and a 2-rank driver."""
    TrinityPipeline(CFG).run(reads, workdir=tmp / "serial")
    ParallelTrinityDriver(ParallelTrinityConfig(trinity=CFG, nprocs=2)).run(
        reads, workdir=tmp / "driver"
    )
    return [(tmp / run / "Trinity.fasta").read_bytes() for run in ("serial", "driver")]


@pytest.fixture(scope="module")
def upper_case(tmp_path_factory):
    serial, driver = _assemblies(READS, tmp_path_factory.mktemp("upper"))
    assert serial == driver and serial
    return serial


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.1, 0.5, 1.0]))
@example(seed=0, share=2.0)  # every base of every read
def test_lower_case_twins_assemble_byte_identically(upper_case, tmp_path_factory, seed, share):
    rng = random.Random(seed)

    def twin(seq):
        if share > 1:
            return seq.lower()
        if rng.random() >= share:
            return seq
        return "".join(b.lower() if rng.random() < 0.5 else b for b in seq)

    twins = [SeqRecord(r.name, twin(r.seq), r.description) for r in READS]
    assert _assemblies(twins, tmp_path_factory.mktemp("twins")) == [upper_case] * 2


@settings(max_examples=40, deadline=None)
@given(
    st.characters(blacklist_characters="ACGTNacgtn", blacklist_categories=("Cs",)),
    st.integers(0, len(READS) - 1),
    st.integers(0, 74),
)
@example("\r", 0, 74)  # a trailing carriage return
@example("u", 5, 0)
def test_any_other_character_raises_before_a_launch(char, at, base):
    seq = READS[at].seq
    base = min(base, len(seq) - 1)
    bad = list(READS)
    bad[at] = SeqRecord(READS[at].name, seq[:base] + char + seq[base + 1 :])
    launched = []
    with pytest.raises(SequenceError, match=re.escape(READS[at].name)):
        run_chain(ParallelTrinityConfig(trinity=CFG), bad, lambda *args: launched.append(args))
    assert not launched
    for run in (
        TrinityPipeline(CFG).run,
        ParallelTrinityDriver(ParallelTrinityConfig(trinity=CFG, nprocs=2)).run,
    ):
        with pytest.raises(SequenceError, match=re.escape(READS[at].name)):
            run(bad)
