#!/usr/bin/env python
"""End-to-end workflow on the sugarbeet miniature, with file exchange.

Mirrors how the real pipeline is operated: the dataset is written to
FASTA first, every stage exchanges data through files in a working
directory, and the run finishes with the Collectl-style stage/RAM report
(the miniature analogue of the paper's Figures 2 and 11).

Run:  python examples/sugarbeet_workflow.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro.obs.span import render_stage_table, render_timeline
from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import ParallelTrinityConfig
from repro.seq.fasta import iter_fasta
from repro.simdata import get_recipe
from repro.trinity import TrinityConfig, TrinityPipeline
from repro.validation import reference_recovery


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    recipe = get_recipe("sugarbeet-mini")
    paths = recipe.write(workdir / "data", seed=0)
    print(f"wrote {paths['reads']} and {paths['reference']}")

    reads = list(iter_fasta(paths["reads"]))
    config = TrinityConfig(seed=0)

    print("\n--- serial Trinity (original workflow) ---")
    serial = TrinityPipeline(config).run(reads, workdir=workdir / "serial")
    print(render_timeline(serial.spans))

    print("\n--- hybrid Trinity (mpirun -np 4, 4 threads/rank) ---")
    driver = ParallelTrinityDriver(ParallelTrinityConfig(trinity=config, nprocs=4, nthreads=4))
    parallel = driver.run(reads, workdir=workdir / "parallel")
    print(render_stage_table(parallel.spans))
    print(f"\nstage files under {workdir}/parallel:")
    for name, path in sorted(parallel.files.items()):
        print(f"  {name:20s} {path}")

    reference = list(iter_fasta(paths["reference"]))
    rec = reference_recovery([t.seq for t in parallel.transcripts], reference)
    print(
        f"\nreference recovery: {rec.genes_full_length}/{rec.n_reference_genes} genes, "
        f"{rec.isoforms_full_length}/{rec.n_reference_isoforms} isoforms full-length, "
        f"{rec.fused_isoforms} fused"
    )


if __name__ == "__main__":
    main()
