#!/usr/bin/env python
"""Profile the hybrid GraphFromFasta with the span observability stack.

Runs the real MPI GraphFromFasta on a miniature dataset with tracing
enabled, then walks the whole profiling surface of one
:class:`repro.obs.StageResult`:

* ASCII Gantt chart — compute (#), waiting at collectives (.),
  communication (~).  The wait stripes are the load imbalance the paper
  measures as max/min rank time (Figure 7).
* Critical-path report — per-rank compute/wait/comm attribution, whose
  totals provably sum to the virtual makespan, plus the redundant-serial
  share of Figure 8 and the longest labelled spans.
* Chrome trace-event export — open ``mpi_trace.json`` in
  ``chrome://tracing`` or https://ui.perfetto.dev (one track per rank
  plus the driver track).

Run:  python examples/mpi_trace.py [nprocs]

The same workflow is packaged as ``python -m repro profile``.
"""

import sys

from repro.mpi import mpirun
from repro.obs import critical_path, render_gantt, verify_attribution
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count


def main() -> None:
    nprocs = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    _txome, pairs = get_recipe("whitefly-mini").materialize(seed=0)
    reads = flatten_reads(pairs)
    counts = jellyfish_count(reads, 25).filtered(2)  # the solid table Jellyfish hands on
    contigs = inchworm_assemble(counts, InchwormConfig(seed=0))
    print(f"{len(reads)} reads -> {len(contigs)} contigs; tracing {nprocs} ranks\n")

    run = mpirun(
        mpi_graph_from_fasta,
        nprocs,
        GffInputs(contigs=contigs, reads=reads),
        GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=4),
        trace=True,
    )
    print(render_gantt(run))
    print(f"\nmakespan {run.makespan:.3f}s, rank imbalance {run.imbalance:.2f}x")
    r = run.outputs[0]
    print(f"{len(r.welds)} welds -> {len(r.pairs)} pairs -> {len(r.components)} components")

    # Exact makespan attribution (raises if the totals don't sum).
    verify_attribution(run)
    print()
    print(critical_path(run, top_k=5).render())

    out = run.write_chrome_trace("mpi_trace.json")
    print(f"\nwrote {out} (open in chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    main()
