"""Calibration of virtual seconds against the paper's measured baselines.

The paper reports absolute single-node times for each Chrysalis substep on
the sugarbeet dataset; these are the anchors that convert our abstract
work-units into seconds.  Everything *relative* (speedups, shares,
imbalance) then emerges from the workload distributions and the schedule
simulation — the calibration fixes only the overall scale and the split
between MPI-scalable and serial/redundant work.

Anchor values (all from the paper, SS:II.B and SS:V):

==============================  ==========  =================================
quantity                        seconds     provenance
==============================  ==========  =================================
GraphFromFasta, 1 node x 16t    122 610     SS:V.A "baseline performance"
ReadsToTranscripts, 1 node      20 190      SS:V.B
Bowtie, 1 node                  ~28 800     SS:V.C "slightly more than 8 hours"
whole Trinity, 1 node           ~216 000    Fig 2 "close to 60 hours"
Chrysalis, 1 node               >180 000    abstract "over 50 hours"
==============================  ==========  =================================

Reconciliation note: the paper's own numbers do not close exactly (e.g.
the ReadsToTranscripts MPI-loop measurements extrapolate to ~12.5 k s of
scalable work versus a 20.2 k s serial baseline).  Where the paper is
internally inconsistent we reproduce the *reported observables* and record
the residual as a serial-path overhead constant, flagged below.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PaperCalibration:
    """All timing anchors and fitted constants, in one auditable place."""

    # ---- serial baselines (measured by the paper) ----
    gff_serial_total_s: float = 122_610.0
    rtt_serial_total_s: float = 20_190.0
    bowtie_serial_total_s: float = 28_800.0
    jellyfish_serial_s: float = 9_000.0  # Fig 2 reading: ~2.5 h
    inchworm_serial_s: float = 18_000.0  # Fig 2 reading: ~5 h
    butterfly_serial_s: float = 9_000.0  # Fig 2 reading: ~2.5 h
    #: FastaToDebruijn + QuantifyGraph.  The paper's own arithmetic
    #: (Chrysalis < 5 h from Bowtie@128 ~9.6 ks + GFF@192 5.9 ks +
    #: RTT@32 ~1.0 ks) leaves ~1.2 ks for the remaining substeps.
    chrysalis_misc_serial_s: float = 1_200.0

    # ---- GraphFromFasta decomposition ----
    #: Non-MPI regions of GraphFromFasta (k-mer setup before loop 2 and
    #: final output generation) — constant across node counts.  Fitted to
    #: Fig 8's shares: loops are 92.44 % of total at 16 nodes and 57.4 %
    #: at 192 nodes, giving a serial region of ~2.0-2.5 ks; we use 2.1 ks.
    gff_serial_region_s: float = 2_100.0
    #: Total loop work of the *shared-memory* (OpenMP-only) code path, in
    #: single-thread seconds, split ~60/40 between the loops.  Anchored to
    #: the serial baseline: (W1 + W2)/16 threads + serial region =
    #: 122 610 s  =>  W1 + W2 = 1.928 Ms.
    gff_loop1_thread_work_s: float = 1.157e6
    gff_loop2_thread_work_s: float = 0.771e6
    #: Work multiplier of the hybrid code path.  The paper's own numbers
    #: (122 610 s serial vs 25 082 s of loops at 16 nodes x 16 threads =
    #: 256 threads) imply the MPI restructuring costs ~3.2x more total
    #: work — every rank hashes/scans the fully pooled weld-candidate set
    #: instead of a shared in-memory one.  FLAGGED: fitted to Fig 7's
    #: 16-node point, not independently measurable from the paper.
    gff_hybrid_work_factor: float = 3.16
    #: Per-rank constant overhead per loop (candidate-pool build, packing).
    gff_loop1_rank_overhead_s: float = 10.0
    gff_loop2_rank_overhead_s: float = 15.0

    # ---- ReadsToTranscripts decomposition ----
    #: MPI-scalable streaming-loop work (rank-seconds at 16 threads).
    #: Fitted to Fig 9: 3123 s at 4 nodes -> 373 s at 32 nodes implies
    #: ~12.1 ks of scalable work and a near-zero constant term.
    rtt_loop_work_s: float = 12_100.0
    #: Redundant full-file read per rank (page-cached after the first
    #: pass; the paper's measurements imply a near-zero constant).
    rtt_redundant_read_s: float = 8.0
    #: OpenMP-only k-mer -> bundle assignment, untouched by MPI; Fig 9's
    #: text (loop < 20 % of total at 32 nodes; overall speedup 19.75)
    #: implies ~0.64 ks.
    rtt_assign_s: float = 640.0
    #: Final `cat` concatenation: "stays constant (below 15 seconds)".
    rtt_concat_s: float = 12.0
    #: Residual between the serial baseline (20 190 s) and the
    #: MPI-extrapolated work (12.5 ks + 0.64 ks): the original streaming
    #: single-node path's extra I/O/memory-pressure cost.  FLAGGED as a
    #: paper-internal inconsistency; charged only to the serial path.
    rtt_serial_residual_s: float = 7_438.0

    # ---- Bowtie decomposition ----
    #: PyFasta split is single-threaded and scales with the contig file,
    #: not with node count; Fig 10 shows it exceeding the per-node Bowtie
    #: time at high node counts.
    pyfasta_split_s: float = 6_500.0
    #: Per-read base cost (index-independent part of alignment).
    bowtie_read_cost_s: float = 1.6e-5
    #: Index-size-dependent per-read cost: per-node time is
    #: n_reads * (read_cost + hit_cost * frac^gamma) + index_build * frac,
    #: where frac is the piece's share of the contig set.  Anchored to the
    #: ~8 h serial run and the ~3x overall speedup at 128 nodes.
    bowtie_hit_cost_s: float = 1.99e-4
    bowtie_gamma: float = 0.8
    bowtie_index_build_s: float = 900.0  # full-index build; scales with piece
    sam_merge_s_per_piece: float = 4.0


#: The library-wide default calibration.
CALIBRATION = PaperCalibration()
