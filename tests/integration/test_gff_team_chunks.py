"""GraphFromFasta's two loops fill their OpenMP teams.

A traced launch on ``smoke`` and ``whitefly-mini`` at 1, 3 and 8 ranks
of 16 threads: each ``gff:loopN:chunk<c>`` compute window is one chunk
run by the rank's team.  Where the contigs number at least ``p x t``,
every window but each rank's last holds at least ``t`` contigs (a chunk
of fewer idles the rest of the team); where they number at least ``p``,
every rank runs a chunk.
"""

import pytest

from repro.mpi import mpirun
from repro.parallel.driver import STAGES, ParallelTrinityConfig, run_chain, serial_launcher
from repro.parallel.mpi_graph_from_fasta import mpi_graph_from_fasta
from repro.simdata.datasets import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig

NTHREADS = 16


@pytest.fixture(scope="module", params=["smoke", "whitefly-mini"])
def gff_launch(request):
    """``(inputs, config)`` of the GFF row on a recipe's chain."""
    reads = flatten_reads(get_recipe(request.param).materialize(seed=0)[1])
    cfg = ParallelTrinityConfig(trinity=TrinityConfig(seed=3), nthreads=NTHREADS)
    chain = run_chain(cfg, reads, serial_launcher(), target="inchworm")
    row = STAGES["gff"]
    return row.inputs(chain), row.config(cfg, None)


@pytest.mark.parametrize("nprocs", [1, 3, 8])
def test_loop_windows_fill_their_teams(gff_launch, nprocs):
    inputs, config = gff_launch
    n = len(inputs.contigs)
    run = mpirun(mpi_graph_from_fasta, nprocs, inputs, config, trace=True)
    for loop in ("loop1", "loop2"):
        sizes = {}
        for span in run.spans:
            if span.kind == "compute" and span.label.startswith(f"gff:{loop}:chunk"):
                sizes.setdefault(span.track, []).append(span.attr("items"))
        assert sum(map(sum, sizes.values())) == n
        if n >= nprocs:
            assert len(sizes) == nprocs, (loop, sizes)
        if n >= nprocs * NTHREADS:
            assert all(min(s[:-1], default=NTHREADS) >= NTHREADS for s in sizes.values()), (
                loop, sizes,
            )
