"""Stage-scaling guards: every ``STAGE_TABLE`` row at 1 and 8 ranks.

One parametrised guard in place of the per-stage ones.  A row's inputs
come from ``run_chain(..., target=row.key)``: upstream rows are launched
once per library at one rank and reused (stage outputs do not depend on
the rank count — a tier-1 invariant), the target row is launched at 1
and 8 ranks through the shared ``best_launch`` fixture, every launch's
rank-0 outputs must give the artefact the row's serial body gives on
the same inputs, and the rows that carry a floor in :data:`CASES` must
clear it.  Plus the one case that is not a table row: the LPT deal against the
cost-blind round-robin on stride-skewed contig-only components.
"""

from dataclasses import replace

import pytest

from repro.experiments.fig_butterfly import skewed_contigs
from repro.mpi import mpirun
from repro.parallel.driver import STAGE_TABLE, ParallelTrinityConfig, run_chain
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendStageConfig,
    contig_only_inputs,
    mpi_chrysalis_backend,
)
from repro.simdata import get_recipe
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig
from repro.trinity.butterfly import ButterflyConfig, butterfly_assemble
from repro.trinity.chrysalis.debruijn import fasta_to_debruijn

NPROCS = 8
#: Library seed (materialisation and ``TrinityConfig``) per recipe.
LIBRARY_SEEDS = {"whitefly-mini": 0, "smoke": 1}

#: case (a row key, or ``<row key>@<what differs>``) -> (recipe, nthreads,
#: strategy, floors).  ``nthreads`` is the team width of the target launch
#: (one thread where a team would hide the rank deal behind its largest
#: item); a floor is the minimum 1-rank-over-8-rank ratio of that reading.
#: GraphFromFasta's are its old "8-rank makespan < 0.75x, host wall < 3x
#: the 1-rank one".  Bowtie's came with the read-block deal (seeds, probe
#: and merge all fall with ``p``): 1.25 before it, 4.08 / 4.15 / 4.40
#: after.  ``chrysalis@node`` is the back end at the node's real team
#: width, where eight ranks used to *cost* time (0.90 before the
#: (component, read block) deal, 1.03 / 1.07 / 1.22 after): a 16-thread
#: team already spreads the units, so what ranks can still remove is
#: small — the floor only says they must not lose.
CASES = {
    "jellyfish": ("whitefly-mini", 16, "round_robin", {"makespan": 1.5}),
    "inchworm": ("whitefly-mini", 1, "round_robin", {"makespan": 1.5}),
    "bowtie": ("whitefly-mini", 16, "round_robin", {"makespan": 3.0}),
    "gff": ("whitefly-mini", 16, "round_robin", {"makespan": 1 / 0.75, "wall_s": 1 / 3.0}),
    "rtt": ("whitefly-mini", 16, "round_robin", {}),
    "chrysalis": ("smoke", 1, "round_robin", {"makespan": 1.5}),
    "chrysalis@node": ("whitefly-mini", 16, "dynamic", {"makespan": 0.9}),
}
ROWS = {row.key: row for row in STAGE_TABLE}
#: Inchworm's identity is also checked with this team per rank (the
#: front-end node's width): threads may not change the contigs either.
INCHWORM_TEAM = 4

_weld_key = lambda w: (w.owner, w.seed_code, w.left_flank, w.seed, w.right_flank)

#: row key -> the artefact of a ``*Outputs`` the two bodies must agree on.
ARTEFACTS = {
    "jellyfish": lambda out: out.counts,
    "inchworm": lambda out: out.contigs,
    "bowtie": lambda out: (out.hits.tobytes(), out.scaffolds),
    # Pooling permutes chunk order: welds compare under a canonical sort.
    "gff": lambda out: (sorted(out.welds, key=_weld_key), out.pairs, out.components),
    "rtt": lambda out: out.assignments,
    "chrysalis": lambda out: (out.transcripts, out.quant_stats),
}


@pytest.fixture(scope="session")
def library():
    """``library(recipe) -> (tcfg, reads, upstream)``, built on first use;
    ``upstream`` caches the one-rank stage launches the rows of that
    library share."""
    built = {}

    def get(recipe):
        if recipe not in built:
            seed = LIBRARY_SEEDS[recipe]
            _txome, pairs = get_recipe(recipe).materialize(seed=seed)
            # Reconciliation off keeps the back end's launch the walk
            # alone, as when its floors were set.  On, the stage would
            # filter candidates inside ``chrysalis:loop`` and still equal
            # its serial body, which filters after Butterfly.
            tcfg = TrinityConfig(seed=seed, use_pair_reconciliation=False)
            built[recipe] = (tcfg, flatten_reads(pairs), {})
        return built[recipe]

    return get


def test_every_row_has_a_case():
    assert {case.partition("@")[0] for case in CASES} == set(ROWS)


@pytest.mark.parametrize("case", CASES)
def test_bench_stage_scales(benchmark, best_launch, library, case):
    row = ROWS[case.partition("@")[0]]
    recipe, nthreads, strategy, floors = CASES[case]
    tcfg, reads, upstream = library(recipe)
    cfg = ParallelTrinityConfig(
        trinity=replace(tcfg, inchworm_threads=nthreads),
        nprocs=NPROCS, nthreads=nthreads, butterfly_strategy=strategy,
    )
    measured = {}

    def launch(r, inputs, config):
        if r.key != row.key:
            if r.key not in upstream:
                upstream[r.key] = mpirun(r.fn, 1, inputs, config)
            return upstream[r.key]
        one = best_launch(lambda: mpirun(r.fn, 1, inputs, config), recorded=False)
        eight = best_launch(lambda: mpirun(r.fn, NPROCS, inputs, config), recorded=True)
        launches = one.all + eight.all
        if r.key == "inchworm":
            launches.append(
                mpirun(r.fn, NPROCS, inputs, replace(config, n_threads=INCHWORM_TEAM))
            )
        measured.update(
            one=one, eight=eight, launches=launches, serial=r.serial(inputs, config)
        )
        return eight.run

    run_chain(cfg, reads, launch, target=row.key)
    one, eight = measured["one"], measured["eight"]

    artefact, serial = ARTEFACTS[row.key], measured["serial"]
    want = artefact(serial)
    assert all(artefact(run.outputs[0].outputs) == want for run in measured["launches"])
    if row.key == "chrysalis":
        # The graphs never cross the wire: they live only in per-rank
        # locals, and the union covers every component exactly once.
        owned = [cid for rank in eight.run.outputs for cid in rank.outputs.local_quants]
        assert sorted(owned) == sorted(serial.local_quants)

    ratios = {
        "makespan": one.run.makespan / eight.run.makespan,
        "wall_s": one.wall_s / eight.wall_s,
    }
    benchmark.extra_info.update(
        {
            "makespan_1": one.run.makespan, f"makespan_{NPROCS}": eight.run.makespan,
            "wall_s_1": one.wall_s, f"wall_s_{NPROCS}": eight.wall_s,
            **{f"{reading}_ratio": ratio for reading, ratio in ratios.items()},
        }
    )
    for reading, floor in floors.items():
        assert ratios[reading] > floor, (reading, ratios[reading], floor)


def test_bench_dynamic_deal_beats_round_robin(benchmark, best_launch):
    """Contig-only (walk-only) components, 24 of them with a 12x heavy one
    at every stride-8 id — under the round robin (`i mod p`) all three heavies
    land on rank 0, one per rank under LPT.  One walk thread per rank:
    with spare threads a rank's time is the max, not the sum, of its
    components and the two deals converge."""
    seqs = skewed_contigs(0, NPROCS, n_components=24)
    bf_cfg = ButterflyConfig(seed=0)
    serial = butterfly_assemble(
        {cid: fasta_to_debruijn([seq], 25) for cid, seq in enumerate(seqs)}, bf_cfg
    )
    inputs = contig_only_inputs(seqs)

    def launch(strategy):
        config = ChrysalisBackendStageConfig(
            k=25, butterfly=bf_cfg, nthreads=1, strategy=strategy
        )
        return lambda: mpirun(mpi_chrysalis_backend, NPROCS, inputs, config)

    static = best_launch(launch("round_robin"), recorded=False)
    dynamic = best_launch(launch("dynamic"), recorded=True)
    assert all(
        run.outputs[0].outputs.transcripts == serial for run in static.all + dynamic.all
    )

    def loop_imbalance(run):
        # The final barrier equalises rank end-times, so imbalance lives
        # in the loop phase, not the run-level times.
        loops = [rank.metrics["phase.loop_s"] for rank in run.outputs]
        return max(loops) / min(loops)

    gain = static.run.makespan / dynamic.run.makespan
    benchmark.extra_info.update(
        {
            "static_makespan_s": static.run.makespan,
            "dynamic_makespan_s": dynamic.run.makespan,
            "gain": gain,
            "static_loop_imbalance": loop_imbalance(static.run),
            "dynamic_loop_imbalance": loop_imbalance(dynamic.run),
        }
    )
    assert gain > 1.5
    assert loop_imbalance(dynamic.run) < loop_imbalance(static.run)
