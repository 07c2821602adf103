"""Shared scaffolding for the paper-reproduction experiments.

Every ``figNN_*``/``tableN_*`` module builds on the same calibrated setup:

* the paper's cluster (22 racks x 10 HP DL585 G5 servers, one battery
  cabinet per rack with 50 s full-load autonomy, PDU budget at 83 % of
  nameplate);
* a Google-trace-like synthetic workload (220 machines, 5-minute samples,
  diurnal cycle) with the periodic cluster-wide surges of paper Fig. 14;
* an attacker that waits for the best time to strike — the rising edge of
  the diurnal peak — and arrives with a *learned* autonomy prior (the
  paper's Phase-I "multiple times of learning").

Determinism: every experiment takes a ``seed`` and produces identical
output for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attack.attacker import Attacker, acquire_nodes
from ..attack.placement import place_attack_nodes
from ..attack.scenario import AttackScenario
from ..attack.virus import profile_for
from ..config import DataCenterConfig
from ..defense import SCHEMES
from ..errors import SimulationError
from ..faults.spec import FaultPlan
from ..grid.spec import GridPlan
from ..power.topology import compile_topology
from ..sim.cohort import CohortCell, CohortSimulation, run_cohort_expanded
from ..sim.datacenter import DataCenterSimulation, SimResult, SimSnapshot
from ..sim.runner import ATTACK_DT_S, AttackWindow, Runner
from ..units import days
from ..workload.cluster import ClusterModel
from ..workload.synthetic import SyntheticTraceConfig, generate_trace
from ..workload.trace import UtilizationTrace

#: Scheme evaluation order used throughout (paper Table III order).
SCHEME_ORDER = ("Conv", "PS", "PSPC", "uDEB", "vDEB", "PAD")

#: Attack observation window for survival runs (seconds). The paper's
#: Fig. 15 y-axis tops out around 1 600 s; we use a slightly longer window
#: so the strongest schemes' survival is visibly censored rather than
#: clipped. Censored cells are reported at the window length.
SURVIVAL_WINDOW_S = 2400.0

#: Default victim rack for targeted attacks.
DEFAULT_TARGET_RACK = 5

#: Cluster utilisation level at which the attacker strikes — the rising
#: edge of the diurnal peak, when the budget is already under pressure.
ATTACK_UTILISATION = 0.57


@dataclass(frozen=True)
class ExperimentSetup:
    """A calibrated (config, trace, attack time) triple.

    Attributes:
        config: The data-center configuration.
        trace: The workload trace.
        attack_time_s: When the attacker strikes.
    """

    config: DataCenterConfig
    trace: UtilizationTrace
    attack_time_s: float

    @property
    def cluster(self) -> ClusterModel:
        """A cluster model for this setup (fresh instance)."""
        return ClusterModel(self.config.cluster)


def surge_trace_config(duration_days: float = 1.0) -> SyntheticTraceConfig:
    """The Fig-15-style workload: diurnal trace + periodic cluster surges."""
    return SyntheticTraceConfig(
        duration_s=days(duration_days),
        surge_period_s=1200.0,
        surge_height=0.06,
        surge_duration_s=400.0,
    )


def quiet_trace_config(duration_days: float = 30.0) -> SyntheticTraceConfig:
    """The month-long background workload (no surges) for Figs. 5/13."""
    return SyntheticTraceConfig(duration_s=days(duration_days))


def rising_edge_time(
    trace: UtilizationTrace, level: float = ATTACK_UTILISATION
) -> float:
    """First time cluster-mean utilisation crosses ``level`` from below.

    The attacker "waits for the best time to attack" (paper §3.1): the
    rising edge of the peak keeps demand high through the whole window.
    """
    mean = trace.matrix.mean(axis=1)
    crossings = np.nonzero((mean[:-1] < level) & (mean[1:] >= level))[0]
    if crossings.size == 0:
        raise SimulationError(
            f"trace never crosses utilisation {level}; lower the level"
        )
    return float((crossings[0] + 1) * trace.interval_s)


def standard_setup(seed: int = 3, duration_days: float = 1.0) -> ExperimentSetup:
    """The default calibrated setup used by the headline experiments."""
    config = DataCenterConfig(seed=seed)
    trace = generate_trace(surge_trace_config(duration_days), seed=seed)
    return ExperimentSetup(
        config=config,
        trace=trace,
        attack_time_s=rising_edge_time(trace),
    )


def learned_autonomy_prior(
    setup: ExperimentSetup, scenario: AttackScenario
) -> float:
    """The attacker's Phase-I-learned estimate of victim DEB autonomy.

    Modelled as the drain time of a PS-style rack battery under the
    scenario's sustained load at the attack-time utilisation — what
    repeated probes against an unprotected deployment would teach
    (paper §3.1: "After multiple times of learning, the attacker can
    develop the knowledge of the capacity of the associated DEB").
    """
    cluster_cfg = setup.config.cluster
    server = cluster_cfg.rack.server
    base_util = float(
        np.mean(setup.trace.at(setup.attack_time_s))
    )
    profile = profile_for(scenario.kind)
    normal_servers = cluster_cfg.rack.servers - scenario.nodes
    normal_w = normal_servers * (
        server.idle_w + base_util * server.dynamic_range_w
    )
    attack_w = scenario.nodes * (
        server.idle_w + profile.sustained_util * server.dynamic_range_w
    )
    budget_w = cluster_cfg.pdu_budget_w / cluster_cfg.racks
    excess_w = normal_w + attack_w - budget_w
    if excess_w <= 0.0:
        return 600.0
    usable_j = cluster_cfg.rack.battery.capacity_j * 0.95
    return float(min(1800.0, usable_j / excess_w))


def build_attacker(
    setup: ExperimentSetup,
    scenario: AttackScenario,
    target_rack: int = DEFAULT_TARGET_RACK,
    seed: int = 7,
) -> Attacker:
    """Acquire nodes and configure the two-phase attacker for a scenario.

    Scenarios without a :class:`~repro.attack.placement.PduPlacement`
    use the classic single-rack lottery (bit-identical to the
    pre-topology path); scenarios with one distribute nodes across the
    compiled PDU hierarchy instead, ignoring ``target_rack``.
    """
    if scenario.placement is None:
        acquisition = acquire_nodes(
            setup.cluster, scenario.nodes, target_rack=target_rack, seed=seed
        )
        nodes = acquisition.nodes
    else:
        placed = place_attack_nodes(
            setup.cluster,
            compile_topology(setup.config.cluster),
            scenario.nodes,
            scenario.placement,
            seed=seed,
        )
        nodes = placed.nodes
    return Attacker(
        nodes,
        scenario.kind,
        spikes=scenario.spikes,
        start_s=setup.attack_time_s + scenario.start_s,
        autonomy_estimate_s=learned_autonomy_prior(setup, scenario),
        phase2_patience_s=1200.0,
        seed=seed,
    )


@dataclass(frozen=True)
class CohortMember:
    """One cell of a batched survival cohort.

    Attributes:
        scheme: A key of :data:`repro.defense.SCHEMES`.
        scenario: The cell's attack, or ``None`` for a benign cell.
        seed: Node-lottery / attacker seed (matches ``run_survival``).
        grid_plan: The cell's grid-disturbance plan (window times are
            absolute simulation times), or ``None`` for a healthy grid.
    """

    scheme: str
    scenario: "AttackScenario | None"
    seed: int = 7
    grid_plan: "GridPlan | None" = None


def run_survival_cohort(
    setup: ExperimentSetup,
    members: "list[CohortMember]",
    window_s: float = SURVIVAL_WINDOW_S,
    dt: float = ATTACK_DT_S,
    record_every: int = 40,
    expand_prefix: bool = True,
    kernels: str = "numpy",
) -> "list[SimResult]":
    """Run N sibling survival cells batched through the cohort backend.

    Every member shares the setup's config and trace; each differs only
    in scheme, scenario and seed. Results come back in member order and
    are bit-identical per cell to the equivalent :func:`run_survival`
    calls with ``backend="vectorized"``, ``lead_in_s=0`` and no fault
    plan (proven by ``tests/test_cohort.py``).

    ``expand_prefix`` (default on) runs the shared pre-onset window as
    a narrow one-cell-per-scheme cohort and tiles it out at the first
    aligned boundary — see :func:`repro.sim.cohort.run_cohort_expanded`.
    Ineligible cohorts fall back to the plain single-pass run, so the
    flag never changes results, only wall time.
    """
    if not members:
        raise SimulationError("a cohort needs at least one member")
    for member in members:
        if member.scheme not in SCHEMES:
            raise SimulationError(f"unknown scheme: {member.scheme!r}")
        if member.scenario is not None and member.scenario.placement is not None:
            raise SimulationError(
                "cohort cells use the flat topology; PDU placements need "
                "the per-cell path"
            )
    cells = [
        CohortCell(
            scheme=member.scheme,
            attacker=(
                build_attacker(setup, member.scenario, seed=member.seed)
                if member.scenario is not None
                else None
            ),
            grid_plan=member.grid_plan,
        )
        for member in members
    ]
    if expand_prefix:
        return run_cohort_expanded(
            setup.config,
            setup.trace,
            cells,
            setup.attack_time_s,
            setup.attack_time_s + window_s,
            dt,
            record_every=record_every,
            kernels=kernels,
        )
    sim = CohortSimulation(setup.config, setup.trace, cells, kernels=kernels)
    return sim.run_cohort(
        setup.attack_time_s,
        setup.attack_time_s + window_s,
        dt,
        record_every=record_every,
    )


def run_survival(
    setup: ExperimentSetup,
    scheme_name: str,
    scenario: "AttackScenario | None",
    window_s: float = SURVIVAL_WINDOW_S,
    dt: float = ATTACK_DT_S,
    seed: int = 7,
    record_every: int = 40,
    lead_in_s: float = 0.0,
    backend: str = "vectorized",
    fault_plan: "FaultPlan | None" = None,
    grid_plan: "GridPlan | None" = None,
    kernels: str = "numpy",
) -> SimResult:
    """One survival-style run: attack at the calibrated time, stop on trip.

    The observation window is declared as an attack window on a
    :class:`~repro.sim.runner.Runner`, so the whole window runs at the
    fine step ``dt``. A positive ``lead_in_s`` prepends a coarse
    trace-interval warm-up segment before the attack (battery, breaker
    and scheme state carry across the boundary).

    Args:
        setup: Calibrated experiment setup.
        scheme_name: A key of :data:`repro.defense.SCHEMES`.
        scenario: The attack, or ``None`` for an attack-free baseline.
    """
    if scheme_name not in SCHEMES:
        raise SimulationError(f"unknown scheme: {scheme_name!r}")
    if lead_in_s < 0.0:
        raise SimulationError("lead_in_s must be non-negative")
    if backend == "cohort":
        if lead_in_s != 0.0:
            raise SimulationError("cohort runs do not support lead-in")
        if fault_plan is not None:
            raise SimulationError("cohort runs do not support fault plans")
        return run_survival_cohort(
            setup,
            [CohortMember(
                scheme=scheme_name,
                scenario=scenario,
                seed=seed,
                grid_plan=grid_plan,
            )],
            window_s=window_s,
            dt=dt,
            record_every=record_every,
            kernels=kernels,
        )[0]
    attacker = (
        build_attacker(setup, scenario, seed=seed) if scenario else None
    )
    sim = DataCenterSimulation(
        setup.config,
        setup.trace,
        SCHEMES[scheme_name],
        attacker=attacker,
        backend=backend,
        fault_plan=fault_plan,
        grid_plan=grid_plan,
        kernels=kernels,
    )
    runner = Runner(
        sim,
        coarse_dt=setup.trace.interval_s,
        fine_dt=dt,
        fine_record_every=record_every,
    )
    return runner.run(
        start_s=setup.attack_time_s - lead_in_s,
        end_s=setup.attack_time_s + window_s,
        attack_windows=[
            AttackWindow(setup.attack_time_s, setup.attack_time_s + window_s)
        ],
        stop_on_trip=True,
    )


def prepare_survival_prefix(
    setup: ExperimentSetup,
    scheme_name: str,
    pause_offset_s: float,
    window_s: float = SURVIVAL_WINDOW_S,
    dt: float = ATTACK_DT_S,
    record_every: int = 40,
    backend: str = "vectorized",
    fault_plan: "FaultPlan | None" = None,
    grid_plan: "GridPlan | None" = None,
    kernels: str = "numpy",
) -> "SimSnapshot | None":
    """Simulate the shared benign prefix of a survival cell family once.

    Runs the exact :func:`run_survival` schedule with *no attacker* up to
    ``attack_time_s + pause_offset_s`` and returns a snapshot from which
    every sibling cell (same everything except scenario and seed) can
    fork via :func:`resume_survival_from_snapshot`. Pre-onset the
    attacker is a bitwise no-op, so omitting it changes nothing; the
    pause must therefore not be later than the earliest sibling's onset.

    Returns ``None`` when the prefix itself tripped a breaker — such a
    run's remainder depends on ``stop_on_trip`` semantics best left to
    the straight per-cell path, so callers simply skip sharing.
    """
    if scheme_name not in SCHEMES:
        raise SimulationError(f"unknown scheme: {scheme_name!r}")
    if pause_offset_s <= 0.0:
        raise SimulationError("pause_offset_s must be positive")
    sim = DataCenterSimulation(
        setup.config,
        setup.trace,
        SCHEMES[scheme_name],
        backend=backend,
        fault_plan=fault_plan,
        grid_plan=grid_plan,
        kernels=kernels,
    )
    runner = Runner(
        sim,
        coarse_dt=setup.trace.interval_s,
        fine_dt=dt,
        fine_record_every=record_every,
    )
    prefix = runner.run_prefix(
        start_s=setup.attack_time_s,
        end_s=setup.attack_time_s + window_s,
        pause_at_s=setup.attack_time_s + pause_offset_s,
        attack_windows=[
            AttackWindow(setup.attack_time_s, setup.attack_time_s + window_s)
        ],
        stop_on_trip=True,
    )
    if prefix.trips:
        return None
    return sim.snapshot()


def resume_survival_from_snapshot(
    setup: ExperimentSetup,
    snapshot: "SimSnapshot",
    scenario: AttackScenario,
    seed: int = 7,
) -> SimResult:
    """Fork one survival cell from a shared-prefix snapshot.

    Restores an independent simulation, attaches the cell's own
    adversary, and finishes the paused schedule. Bit-identical to the
    straight :func:`run_survival` call with the same arguments — proven
    by the differential harness, relied on by
    :class:`~repro.search.FrontierSearch` forks.
    """
    sim = DataCenterSimulation.restore(snapshot)
    sim.attach_attacker(build_attacker(setup, scenario, seed=seed))
    return sim.resume_segments(stop_on_trip=True)


def run_throughput(
    setup: ExperimentSetup,
    scheme_name: str,
    scenario: AttackScenario,
    window_s: float = 1200.0,
    dt: float = ATTACK_DT_S,
    seed: int = 7,
    initial_battery_soc: float = 1.0,
    backend: str = "vectorized",
    fault_plan: "FaultPlan | None" = None,
    grid_plan: "GridPlan | None" = None,
    kernels: str = "numpy",
) -> SimResult:
    """One throughput-style run: breakers re-arm, run the whole window.

    Used by the Fig. 16 performance experiments — the metric is delivered
    over demanded work during the attack period, including downtime from
    any trips (repaired after five minutes).
    """
    if scheme_name not in SCHEMES:
        raise SimulationError(f"unknown scheme: {scheme_name!r}")
    attacker = build_attacker(setup, scenario, seed=seed)
    sim = DataCenterSimulation(
        setup.config,
        setup.trace,
        SCHEMES[scheme_name],
        attacker=attacker,
        repair_time_s=300.0,
        initial_battery_soc=initial_battery_soc,
        backend=backend,
        fault_plan=fault_plan,
        grid_plan=grid_plan,
        kernels=kernels,
    )
    runner = Runner(
        sim,
        coarse_dt=setup.trace.interval_s,
        fine_dt=dt,
        fine_record_every=80,
    )
    return runner.run(
        start_s=setup.attack_time_s,
        end_s=setup.attack_time_s + window_s,
        attack_windows=[
            AttackWindow(setup.attack_time_s, setup.attack_time_s + window_s)
        ],
        stop_on_trip=False,
    )


def format_table(
    rows: "dict[str, dict[str, float]]", value_format: str = "{:>10.1f}"
) -> str:
    """Render a nested ``{row: {column: value}}`` dict as aligned text."""
    if not rows:
        raise SimulationError("nothing to format")
    columns = list(next(iter(rows.values())))
    header = f"{'':<18}" + "".join(f"{c:>11}" for c in columns)
    lines = [header]
    for name, row in rows.items():
        cells = "".join(" " + value_format.format(row[c]) for c in columns)
        lines.append(f"{name:<18}" + cells)
    return "\n".join(lines)
