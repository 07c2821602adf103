"""The four benchmark workloads, built from the library's public API.

Each entry of :data:`WORKLOADS` does the set-up a user pays before the
first simulation call (trace generation, onset calibration, topology
compile, kernel-provider load) and returns a :class:`Prepared` whose
``run_pass`` executes one pass and returns every resolved unit (a
survival cell, or a search candidate) as a summary comparable bit for
bit with the committed references.

The ``order_seed`` permutes the order in which a pass submits its cells
or candidates. Every simulated statistic is independent of that order
(sweeps key results by cell, the cohort demultiplexes per cell, the
search resolves in synchronous rounds), so one reference per set-up
seed covers every order seed, and the work per pass stays the same.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

from spans import bind_arguments

#: Survival window and onset of the stacked (late-onset) grid, the
#: shape of ``BENCH_cohort.json``.
STACKED_ONSET_S = 2100.0
STACKED_SEEDS = (7, 11)

#: Fleet shape: 1024 racks under 16 row PDUs, a 64-node striped dense
#: attack, telemetry dropout on every eighth rack at +120..+240 s.
FLEET_RACKS = 1024
FLEET_PDUS = 16
FLEET_ATTACK_NODES = 64
FLEET_WINDOW_S = 600.0
FLEET_DROPOUT_S = (120.0, 240.0)
FLEET_DROPOUT_EVERY = 8

#: Windows of the untimed warm-up pass (first-call costs only). The
#: search warms on the full window: on shorter ones every candidate
#: outlives the window, nothing is pruned and a pass runs three times
#: the cells (a 600 s warm-up took longer than a timed pass).
WARM_WINDOW_S = {
    "paper-cell": 120.0,
    "stacked-sweep": 300.0,
    "frontier-search": 2400.0,
    "fleet-1024": 130.0,
}


@dataclass
class PassOutcome:
    """What one pass resolved.

    Attributes:
        summaries: Unit key -> comparable summary, for every unit that
            produced a result.
        errors: Unit key -> error text, for units that raised or came
            back as a ``CellFailure``.
        search: The search-level summary (frontier-search only).
        frontier: The ``FrontierResult`` itself (frontier-search only).
    """

    summaries: "dict[str, dict]" = field(default_factory=dict)
    errors: "dict[str, str]" = field(default_factory=dict)
    search: "dict | None" = None
    frontier: object = None


@dataclass
class Prepared:
    """A workload after set-up, ready to run passes."""

    name: str
    setup: object
    units: int
    run_pass: "Callable[[bool], PassOutcome]"
    phases: "dict[str, float]"


def cell_key(scheme: str, scenario, seed: int) -> str:
    """Stable identity of a survival cell."""
    label = scenario.name if scenario is not None else "benign"
    return f"{scheme}|{label}|{seed}"


def summarize(result) -> dict:
    """The statistics a cell is checked on, exactly as simulated."""
    return {
        "survival_s": result.survival_or_window(),
        "trips": len(result.trips),
        "first_trip_s": result.trips[0].time_s if result.trips else None,
        "overloads": len(result.overloads),
        # Cells that never trip (all of fleet-1024) still differ here
        # whenever capping, shedding or degraded telemetry change.
        "delivered_work": result.delivered_work,
        "demanded_work": result.demanded_work,
        "events": len(result.events),
    }


@contextmanager
def captured_results():
    """Collect each sweep cell's ``SimResult`` while a sweep runs.

    ``ScenarioSweep`` hands back one metric per cell; the gate also
    checks trips and overloads, so the sweep module's two entry points
    are wrapped (whatever they currently are, which under tracing is the
    tracer's wrapper) to keep the results they return.
    """
    from repro.experiments import sweep

    found: "dict[str, object]" = {}
    run_one = sweep.run_survival
    run_batch = sweep.run_survival_cohort

    def one(*args, **kwargs):
        result = run_one(*args, **kwargs)
        bound = bind_arguments(run_one, args, kwargs)
        found[cell_key(bound["scheme_name"], bound["scenario"],
                       bound["seed"])] = result
        return result

    def batch(*args, **kwargs):
        results = run_batch(*args, **kwargs)
        members = bind_arguments(run_batch, args, kwargs)["members"]
        for member, result in zip(members, results):
            found[cell_key(member.scheme, member.scenario,
                           member.seed)] = result
        return results

    sweep.run_survival = one
    sweep.run_survival_cohort = batch
    try:
        yield found
    finally:
        sweep.run_survival = run_one
        sweep.run_survival_cohort = run_batch


def _sweep_pass(setup, cells, warm_cells) -> "Callable[[bool], PassOutcome]":
    from repro.experiments.sweep import ScenarioSweep

    def run_pass(warm: bool) -> PassOutcome:
        grid = warm_cells if warm else cells
        outcome = PassOutcome()
        with captured_results() as found:
            sweep = ScenarioSweep(setup, grid, workers=0).run()
        failed = {f.index: f.error for f in sweep.failures}
        for index, (cell, metric) in enumerate(sweep.by_cell()):
            key = cell_key(cell.scheme, cell.scenario, cell.seed)
            if index in failed:
                outcome.errors[key] = failed[index]
            elif key not in found:
                outcome.errors[key] = "sweep returned no result"
            else:
                summary = summarize(found[key])
                if summary["survival_s"] != metric:
                    outcome.errors[key] = (
                        f"sweep metric {metric!r} != result "
                        f"{summary['survival_s']!r}"
                    )
                else:
                    outcome.summaries[key] = summary
        return outcome

    return run_pass


def _calibrated_setup(config, trace_config, seed: int, phases: dict):
    """An ``ExperimentSetup`` as ``standard_setup`` builds it, timed."""
    from repro.experiments.common import ExperimentSetup, rising_edge_time
    from repro.workload.synthetic import generate_trace

    start = time.perf_counter()
    trace = generate_trace(trace_config, seed=seed)
    phases["trace_gen_s"] = time.perf_counter() - start
    start = time.perf_counter()
    setup = ExperimentSetup(
        config=config, trace=trace, attack_time_s=rising_edge_time(trace)
    )
    phases["calibrate_s"] = time.perf_counter() - start
    return setup


def _load_kernels(phases: dict) -> None:
    from repro.kernels import active_provider

    start = time.perf_counter()
    active_provider()
    phases["kernels_s"] = time.perf_counter() - start


def _paper_setup(setup_seed: int, phases: dict):
    """``standard_setup(seed)``'s 22-rack set-up, plus the kernel load."""
    from repro.config import DataCenterConfig
    from repro.experiments.common import surge_trace_config

    setup = _calibrated_setup(
        DataCenterConfig(seed=setup_seed), surge_trace_config(), setup_seed,
        phases,
    )
    _load_kernels(phases)
    return setup


def _shuffled(items: list, order_seed: "int | None") -> list:
    """``items`` permuted by ``order_seed``; canonical order for None."""
    items = list(items)
    if order_seed is not None:
        random.Random(order_seed).shuffle(items)
    return items


def prepare_paper_cell(setup_seed: int, order_seed: "int | None") -> Prepared:
    """Fig. 15 cells on the 22-rack cluster, library defaults."""
    from repro.attack.scenario import DENSE_ATTACK, SPARSE_ATTACK
    from repro.experiments.common import SCHEME_ORDER, SURVIVAL_WINDOW_S
    from repro.experiments.sweep import survival_grid_cells

    phases: "dict[str, float]" = {}
    setup = _paper_setup(setup_seed, phases)
    cells = _shuffled(
        survival_grid_cells(
            [DENSE_ATTACK, SPARSE_ATTACK], SCHEME_ORDER,
            window_s=SURVIVAL_WINDOW_S,
        ),
        order_seed,
    )
    warm = [replace(c, window_s=WARM_WINDOW_S["paper-cell"]) for c in cells]
    return Prepared("paper-cell", setup, len(cells),
                    _sweep_pass(setup, cells, warm), phases)


def stacked_cells(window_s: float, backend: str, kernels: str) -> list:
    """The 36-cell late-onset grid of ``BENCH_cohort.json``."""
    from repro.attack.scenario import DENSE_ATTACK, SPARSE_ATTACK
    from repro.experiments.common import SCHEME_ORDER
    from repro.experiments.sweep import SweepCell

    onset = STACKED_ONSET_S
    scenarios = [
        replace(DENSE_ATTACK, start_s=onset, name="dense-late"),
        replace(SPARSE_ATTACK, start_s=onset, name="sparse-late"),
        replace(DENSE_ATTACK.with_nodes(4), start_s=onset + 60.0,
                name="dense4-later"),
    ]
    return [
        SweepCell(
            row=scenario.name, column=f"{scheme}/s{seed}", scheme=scheme,
            scenario=scenario, window_s=window_s, seed=seed,
            backend=backend, kernels=kernels,
        )
        for scenario in scenarios
        for seed in STACKED_SEEDS
        for scheme in SCHEME_ORDER
    ]


def prepare_stacked_sweep(setup_seed: int,
                          order_seed: "int | None") -> Prepared:
    """The late-onset grid, stacked through the cohort, compiled tier."""
    from repro.experiments.common import SURVIVAL_WINDOW_S

    phases: "dict[str, float]" = {}
    setup = _paper_setup(setup_seed, phases)
    cells = _shuffled(
        stacked_cells(SURVIVAL_WINDOW_S, "cohort", "compiled"), order_seed
    )
    warm = [replace(c, window_s=WARM_WINDOW_S["stacked-sweep"])
            for c in cells]
    return Prepared("stacked-sweep", setup, len(cells),
                    _sweep_pass(setup, cells, warm), phases)


def search_space(setup):
    """The 48-candidate space: widths x rates x nodes x placement x grid."""
    from repro.attack.placement import PduPlacement
    from repro.experiments.attack_during_sag import demo_plan
    from repro.search import AttackSpace

    return AttackSpace(
        onsets_s=(300.0,),
        widths_s=(1.0, 2.0, 4.0),
        rates_per_min=(2.0, 6.0),
        node_counts=(3, 6),
        placements=(None, PduPlacement(mode="striped")),
        grids=(None, demo_plan(setup.attack_time_s)),
    )


def prepare_frontier_search(setup_seed: int,
                            order_seed: "int | None") -> Prepared:
    """``FrontierSearch`` for PS with the default probe rounds."""
    from repro.experiments.common import SURVIVAL_WINDOW_S
    from repro.search import FrontierSearch

    phases: "dict[str, float]" = {}
    setup = _paper_setup(setup_seed, phases)
    candidates = _shuffled(list(search_space(setup).candidates()),
                           order_seed)

    def run_pass(warm: bool) -> PassOutcome:
        window = (WARM_WINDOW_S["frontier-search"] if warm
                  else SURVIVAL_WINDOW_S)
        result = FrontierSearch(
            setup, candidates, "PS", window_s=window
        ).run()
        outcome = PassOutcome(frontier=result)
        for o in result.outcomes:
            outcome.summaries[o.key] = {
                "status": o.status,
                "survival_s": o.survival_s,
                "round": o.round_index,
            }
        outcome.search = {
            "worst_survival_s": result.worst_survival_s,
            "argmin": sorted(o.key for o in result.worst),
            "cells_run": result.cells_run,
        }
        return outcome

    return Prepared("frontier-search", setup, len(candidates), run_pass,
                    phases)


def prepare_fleet(setup_seed: int, order_seed: "int | None") -> Prepared:
    """1024 racks under 16 row PDUs, PAD and PS, with a telemetry fault."""
    from repro.attack.placement import PduPlacement
    from repro.attack.scenario import DENSE_ATTACK
    from repro.config import ClusterConfig, DataCenterConfig, TopologyConfig
    from repro.experiments.common import surge_trace_config
    from repro.experiments.sweep import SweepCell
    from repro.faults.spec import FaultPlan, TelemetryDropout
    from repro.power.topology import compile_topology

    phases: "dict[str, float]" = {}
    start = time.perf_counter()
    cluster = ClusterConfig(
        racks=FLEET_RACKS,
        topology=TopologyConfig(
            racks_per_pdu=(FLEET_RACKS // FLEET_PDUS,) * FLEET_PDUS
        ),
    )
    config = DataCenterConfig(cluster=cluster, seed=setup_seed)
    compile_topology(cluster)
    phases["topology_s"] = time.perf_counter() - start
    setup = _calibrated_setup(
        config,
        replace(surge_trace_config(),
                machines=FLEET_RACKS * cluster.rack.servers),
        setup_seed,
        phases,
    )
    _load_kernels(phases)
    scenario = replace(
        DENSE_ATTACK, nodes=FLEET_ATTACK_NODES, name="dense-striped",
        placement=PduPlacement(mode="striped"),
    )
    onset = setup.attack_time_s
    plan = FaultPlan(specs=(TelemetryDropout(
        start_s=onset + FLEET_DROPOUT_S[0],
        end_s=onset + FLEET_DROPOUT_S[1],
        racks=tuple(range(0, FLEET_RACKS, FLEET_DROPOUT_EVERY)),
    ),))
    cells = _shuffled(
        [
            SweepCell(row=scenario.name, column=scheme, scheme=scheme,
                      scenario=scenario, window_s=FLEET_WINDOW_S,
                      fault_plan=plan)
            for scheme in ("PAD", "PS")
        ],
        order_seed,
    )
    warm = [replace(c, window_s=WARM_WINDOW_S["fleet-1024"]) for c in cells]
    return Prepared("fleet-1024", setup, len(cells),
                    _sweep_pass(setup, cells, warm), phases)


WORKLOADS = {
    "paper-cell": prepare_paper_cell,
    "stacked-sweep": prepare_stacked_sweep,
    "frontier-search": prepare_frontier_search,
    "fleet-1024": prepare_fleet,
}


def check(outcome: PassOutcome, reference: dict) -> "dict[str, str]":
    """Units of ``outcome`` that differ from ``reference``, with why.

    Every unit the reference names must be present and equal; errors
    count as failures; a search whose frontier-level summary differs
    fails every unit.
    """
    problems = dict(outcome.errors)
    expected = reference["units"]
    for key, want in expected.items():
        if key in problems:
            continue
        got = outcome.summaries.get(key)
        if got is None:
            problems[key] = "missing from the pass"
        elif got != want:
            problems[key] = f"got {got!r}, reference {want!r}"
    for key in outcome.summaries:
        if key not in expected:
            problems[key] = "not in the reference"
    search = reference["search"]
    if search is not None and outcome.search != search:
        for key in expected:
            problems.setdefault(
                key, f"search {outcome.search!r} != reference {search!r}"
            )
    return problems


def cross_check(prepared: Prepared, outcome: PassOutcome) -> "dict[str, str]":
    """Differential check made before a reference is stored.

    The stacked cells must match the same cells run one by one on the
    vectorized backend with numpy kernels, which the library promises
    bit for bit. Other workloads already run their cells one by one.
    """
    if prepared.name != "stacked-sweep":
        return {}
    from repro.experiments.common import SURVIVAL_WINDOW_S, run_survival

    problems = {}
    for cell in stacked_cells(SURVIVAL_WINDOW_S, "vectorized", "numpy"):
        key = cell_key(cell.scheme, cell.scenario, cell.seed)
        single = summarize(run_survival(
            prepared.setup, cell.scheme, cell.scenario,
            window_s=cell.window_s, seed=cell.seed,
        ))
        if outcome.summaries.get(key) != single:
            problems[key] = (
                f"stacked {outcome.summaries.get(key)!r} != per-cell "
                f"{single!r}"
            )
    return problems
