#!/usr/bin/env python
"""Quickstart: assemble a synthetic RNA-seq read set with serial Trinity,
then with the paper's hybrid MPI+OpenMP Chrysalis, and verify they agree.

Run:  python examples/quickstart.py
"""

from repro.parallel import ParallelTrinityDriver
from repro.parallel.driver import ParallelTrinityConfig
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig, TrinityPipeline
from repro.util.fmt import human_time


def main() -> None:
    # 1. Simulate a miniature dataset (stand-in for the paper's whitefly set).
    recipe = get_recipe("smoke")
    transcriptome, pairs = recipe.materialize(seed=42)
    reads = flatten_reads(pairs)
    print(f"dataset: {recipe.name} — {len(reads)} reads from "
          f"{len(transcriptome.isoforms)} isoforms in {len(transcriptome)} genes")

    # 2. Serial Trinity (the original OpenMP-only workflow).
    config = TrinityConfig(seed=42)
    serial = TrinityPipeline(config).run(reads)
    print(f"\nserial pipeline: {len(serial.contigs)} Inchworm contigs -> "
          f"{serial.n_components} Chrysalis components -> "
          f"{len(serial.transcripts)} transcripts")
    for span in serial.timeline.spans:
        print(f"  {span.stage:35s} {human_time(span.duration_s)}")

    # 3. Hybrid Trinity: Chrysalis under mpirun on 4 simulated nodes.
    parallel = ParallelTrinityDriver(
        ParallelTrinityConfig(trinity=config, nprocs=4, nthreads=4)
    ).run(reads)
    # One mpirun StageResult per stage, in launch order.
    stages = {child.stage: child for child in parallel.children}
    gff = stages["mpi_graph_from_fasta"]
    print(f"\nhybrid pipeline (4 ranks x 4 threads):")
    print(f"  GraphFromFasta virtual makespan : {gff.makespan:.3f} s "
          f"(rank imbalance {gff.imbalance:.2f}x)")
    print(f"  ReadsToTranscripts makespan     : {parallel.metrics['mpi.rtt_makespan_s']:.3f} s")
    print(f"  Bowtie makespan                 : {parallel.metrics['mpi.bowtie_makespan_s']:.3f} s")

    # 4. The paper's validation claim, as an exact check at fixed seed.
    same = sorted(t.seq for t in serial.transcripts) == sorted(
        t.seq for t in parallel.transcripts
    )
    print(f"\nserial and hybrid transcript sets identical: {same}")
    assert same, "hybrid Chrysalis must reproduce the serial output"


if __name__ == "__main__":
    main()
