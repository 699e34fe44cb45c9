#!/usr/bin/env python
"""End-to-end workflow on the sugarbeet miniature, with file exchange.

Mirrors how the real pipeline is operated: the dataset is written to
FASTA first, every stage exchanges data through files in a working
directory, and each run finishes with its per-stage host-time table (the
time half of the paper's Figures 2 and 11; their RAM traces are modelled
at paper scale, ``python -m repro experiments fig02 fig11``).

Run:  python examples/sugarbeet_workflow.py [workdir]

Without ``workdir`` the files go to a temporary directory that is
removed on exit.
"""

import sys
import tempfile
from pathlib import Path

from repro.obs.span import render_stage_table
from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import ParallelTrinityConfig
from repro.seq.fasta import iter_fasta
from repro.simdata import get_recipe
from repro.trinity import TrinityConfig, TrinityPipeline
from repro.validation import reference_recovery


def main() -> None:
    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
        return
    with tempfile.TemporaryDirectory() as tmp:
        run(Path(tmp))
        print(f"\n(files under {tmp} are removed on exit; pass a workdir to keep them)")


def run(workdir: Path) -> None:
    recipe = get_recipe("sugarbeet-mini")
    paths = recipe.write(workdir / "data", seed=0)
    print(f"wrote {paths['reads']} and {paths['reference']}")

    reads = list(iter_fasta(paths["reads"]))
    config = TrinityConfig(seed=0)

    print("\n--- serial Trinity (original workflow) ---")
    serial = TrinityPipeline(config).run(reads, workdir=workdir / "serial")
    print(render_stage_table(serial.spans))

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
