"""Cohort backend: batched multi-cell stepping for sibling sweep cells.

A fig15-style sweep runs dozens of *sibling* simulations — same cluster
configuration and trace, different seeds, attack onsets or defense
schemes. The per-cell backends pay the full Python stage overhead once
per cell per step. The cohort backend stacks N sibling cells into **one**
composite simulation of ``N * racks`` racks whose compiled topology makes
each cell a mid-tier PDU row, so every kernel call (trace lookup, rack
power, battery fleet, supercap shaver, breaker bank, meters) advances all
cells at once and the Python overhead is paid once per step total.

Bit-identity with the per-cell vectorized backend is a hard requirement
(enforced by ``tests/test_cohort.py`` and the golden trace). The stacking
rules that make it hold:

* Cells are grouped into contiguous same-scheme *family* blocks (stable
  sort, results returned in input order). Each family owns one stock
  defense scheme instance over its block: a single-cell family gets the
  unmodified scheme with ``topology=None`` (the exact per-cell code
  path); a multi-cell family gets the scheme with a per-family
  :class:`CohortTopology` whose per-PDU pools scope vDEB/PAD maths to
  each cell's block. PAD's policy/shedder are per-cell objects
  (:class:`CohortPadScheme`); everything else is elementwise or
  per-block and provably equal.
* Per-PDU sums use reshaped row sums (``x.reshape(cells, -1).sum(1)``),
  which reduce pairwise over each contiguous block exactly like the
  per-cell ``np.sum`` — ``np.add.reduceat`` would not be bitwise equal.
* The composite root breaker is rated ``inf`` (it can never fire); each
  cell's mid-tier breaker carries the budget rating the per-cell run
  gives its cluster breaker, so cluster trips/overloads reproduce
  exactly, relabelled back to ``rack_id=-1`` by the event demux.
* Events are demultiplexed onto per-cell buses with cell-local ids; a
  cell whose breaker trips is frozen out of the cohort at the end of
  that step (its ``SimResult`` ends exactly where ``stop_on_trip``
  would have ended the per-cell run) while the others keep stepping.
* A quiescent family (``ff_eligible`` scheme at a proven fixed point —
  the battery full, no shaving, no charging, no capping) is *frozen*:
  its per-step dispatch call is skipped entirely while the composite
  buffers keep its constant outputs. The fixed point is proven by
  matching ``ff_state`` fingerprints (:func:`state_fingerprint`) one
  management period apart plus an event-free, power-inert captured
  period — and guarded
  by value on every input that could perturb it (trace epoch, attack
  onsets, breaker trips, metered telemetry at each publication), so a
  frozen family's skipped dispatches are bitwise no-ops by
  construction.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..attack.attacker import Attacker
from ..config import DataCenterConfig
from ..core.policy import HierarchicalPolicy, PolicyInputs, SecurityLevel
from ..core.shedding import LoadShedder
from ..battery.charger import OfflineCharger
from ..defense import SCHEMES
from ..defense.base import (
    _UNUSED_F64,
    _UNUSED_I64,
    _UNUSED_U8,
    DefenseScheme,
    Dispatch,
    SchemeContext,
    StepState,
)
from ..defense.pad import PadScheme
from ..errors import SimulationError
from ..grid.spec import GridPlan
from ..kernels import get_kernels, resolve_kernels
from ..power.breaker_kernels import make_breaker_bank
from ..power.topology import CompiledTopology
from ..workload.cluster import ClusterModel
from ..workload.trace import UtilizationTrace
from .datacenter import DataCenterSimulation, SimResult, StepContext
from .events import (
    BreakerTripped,
    CappingChanged,
    EventBus,
    FaultEvent,
    GridEvent,
    OverloadEvent,
    PolicyEscalation,
    SheddingAction,
    SimEvent,
    SoftLimitsReassigned,
)
from .recorder import Recorder

__all__ = [
    "CohortCell",
    "CohortSimulation",
    "CohortTopology",
    "run_cohort_expanded",
]


def _feed(digest, value) -> None:
    """Feed one value into the hash with an unambiguous type tag."""
    if value is None:
        digest.update(b"\x00N")
    elif isinstance(value, (bool, np.bool_)):
        digest.update(b"\x00T" if value else b"\x00F")
    elif isinstance(value, (int, np.integer)):
        digest.update(b"\x00i" + struct.pack("<q", int(value)))
    elif isinstance(value, (float, np.floating)):
        # Raw IEEE-754 bits: 0.0 vs -0.0 and NaN payloads all count as
        # distinct state, which is exactly the bitwise contract.
        digest.update(b"\x00f" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        digest.update(b"\x00s" + struct.pack("<q", len(raw)) + raw)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        head = f"{arr.dtype.str}|{arr.shape}".encode("utf-8")
        digest.update(b"\x00a" + struct.pack("<q", len(head)) + head)
        digest.update(arr.tobytes())
    elif isinstance(value, dict):
        digest.update(b"\x00d" + struct.pack("<q", len(value)))
        for key in sorted(value, key=str):
            _feed(digest, str(key))
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(b"\x00l" + struct.pack("<q", len(value)))
        for item in value:
            _feed(digest, item)
    else:
        raise SimulationError(
            f"cannot fingerprint a {type(value).__name__} in ff_state"
        )


def state_fingerprint(state: dict) -> bytes:
    """Canonical SHA-256 digest of a nested ``ff_state`` dict.

    Dict keys are visited in sorted order, floats hash by their IEEE-754
    bit pattern and arrays by dtype, shape and raw bytes, so two digests
    are equal exactly when the states are bitwise equal (up to hash
    collision, which for SHA-256 is not a practical concern).
    """
    digest = hashlib.sha256()
    _feed(digest, state)
    return digest.digest()


@dataclass(frozen=True)
class CohortCell:
    """One sibling simulation inside a cohort.

    Attributes:
        scheme: Defense-scheme registry key (``repro.defense.SCHEMES``).
        attacker: The cell's adversary, built against the *single-cell*
            cluster (local node ids); ``None`` runs the cell benign.
        grid_plan: The cell's grid-disturbance plan, built against the
            *single-cell* cluster (local rack ids); ``None`` runs the
            cell on a healthy grid.
    """

    scheme: str
    attacker: "Attacker | None" = None
    grid_plan: "GridPlan | None" = None


class CohortTopology(CompiledTopology):
    """A compiled topology whose PDU sums are bitwise per-cell sums.

    ``CompiledTopology.pdu_sums`` uses ``np.add.reduceat``, whose
    left-to-right accumulation differs in the last ulp from the pairwise
    reduction ``np.sum`` performs over a contiguous block. The cohort
    needs each cell's aggregate to equal the per-cell ``np.sum`` exactly,
    and every cohort block has the same length, so a reshaped row sum —
    pairwise per row — is both exact and faster.
    """

    def pdu_sums(self, rack_values: np.ndarray) -> np.ndarray:
        return rack_values.reshape(self.pdus, -1).sum(axis=1)


def _stacked_topology(
    cells: int, racks_per_cell: int, budget_w: float
) -> CohortTopology:
    """Topology of ``cells`` identical blocks, one mid-tier PDU each."""
    return CohortTopology(
        racks=cells * racks_per_cell,
        pdus=cells,
        rack_to_pdu=np.repeat(np.arange(cells, dtype=np.intp), racks_per_cell),
        segment_starts=np.arange(cells, dtype=np.intp) * racks_per_cell,
        pdu_rack_counts=np.full(cells, racks_per_cell, dtype=np.intp),
        pdu_budget_w=np.full(cells, budget_w),
        cluster_budget_w=np.inf,
        pdu_breaker_rated_w=np.full(cells, budget_w),
        has_pdu_tier=True,
    )


class _SchemeFacade:
    """The composite management masks the inherited stages read.

    Holds stitched copies of every family scheme's ``capped_racks`` /
    ``asleep_servers``, refreshed at the *start* of each step — i.e. the
    end-of-previous-step state, which is exactly what the per-cell
    pipeline's demand/attack stages observe (management acts one tick
    delayed). Keeping separate buffers also protects the step's
    ``ctx.asleep`` reference from PAD's mid-step in-place updates.
    """

    __slots__ = ("capped_racks", "asleep_servers")

    def __init__(self, racks: int, servers: int) -> None:
        self.capped_racks = np.zeros(racks, dtype=bool)
        self.asleep_servers = np.zeros(servers, dtype=bool)


@dataclass
class _Family:
    """A contiguous block of same-scheme cells sharing one scheme."""

    name: str
    cell_ids: "list[int]"
    rack_sl: slice
    srv_sl: slice
    scheme: DefenseScheme
    bus: EventBus
    limits_ref: "np.ndarray | None" = None
    # --- quiescent-freeze bookkeeping (see ``stage_defense``) --------- #
    min_onset_s: float = float("inf")
    freezable: bool = False
    drainable: bool = False
    frozen: bool = False
    drain: "dict | None" = None
    last_fp: "bytes | None" = None
    trace_until: float = float("nan")
    proving: "list[tuple] | None" = None
    proving_metered: "tuple[np.ndarray, np.ndarray] | None" = None
    metered_ref: "tuple[np.ndarray, np.ndarray] | None" = None
    events_in_period: bool = False
    # --- per-cell grid machinery (see ``stage_grid_cells``) ----------- #
    #: ``(cell position within family, injector)`` for grid-plan cells.
    grid_injectors: "list[tuple[int, object]]" = field(default_factory=list)
    #: Family-stitched grid inputs for this step's :class:`StepState`
    #: (``None`` while the corresponding machinery is inactive, exactly
    #: like the per-cell injector exposes them).
    grid_feed: "np.ndarray | None" = None
    grid_freg_w: "np.ndarray | None" = None
    grid_freg_floor: "np.ndarray | None" = None


class _Facet:
    """A bag of fixed attributes (shapes the grid host advertises)."""

    def __init__(self, **attrs) -> None:
        self.__dict__.update(attrs)


class _CellGridHost:
    """The sim-shaped adapter one cell's :class:`GridInjector` drives.

    Presents a cell's slice of the cohort as the single-cell simulation
    the injector expects: local rack count, a flat ``racks + 1`` breaker
    bank, the cell's own event bus (so published grid events carry
    cell-local rack ids, exactly like the per-cell run), and a
    ``set_grid_derate`` that parks the cell derate for the cohort to
    recompose into the composite bank derate.
    """

    __slots__ = ("cluster", "topology", "bus", "derate", "_cohort")

    def __init__(
        self, racks: int, bus: EventBus, cohort: "CohortSimulation"
    ) -> None:
        self.cluster = _Facet(racks=racks)
        self.topology = _Facet(n_breakers=racks + 1)
        self.bus = bus
        self.derate: "np.ndarray | None" = None
        self._cohort = cohort

    def set_grid_derate(self, derate: "np.ndarray | None") -> None:
        self.derate = derate
        self._cohort._grid_dirty = True


@dataclass
class _CellAttack:
    """Precomputed global-index view of one cell's attacker."""

    attacker: Attacker
    onset_s: float
    server_offset: int
    nodes_global: np.ndarray
    racks_global: "tuple[int, ...]"


class CohortPadScheme(PadScheme):
    """PAD over a multi-cell family: per-cell policy, shedder and events.

    The physics (vDEB per-PDU pools, uDEB shaving, capping walk, spike
    tracking, soft-limit floors) is inherited unchanged — all of it is
    elementwise or scoped per block by the family topology. Only the
    software plane that aggregates *across* racks is re-scoped here:
    each cell gets its own :class:`HierarchicalPolicy` and
    :class:`LoadShedder`, fed the cell's slice of the family-wide
    telemetry, with escalation/shedding events published on the cell's
    own bus.
    """

    def bind_cohort(
        self,
        cell_buses: "list[EventBus]",
        cell_ids: "list[int]",
        done: np.ndarray,
        racks_per_cell: int,
        servers_per_cell: int,
    ) -> None:
        """Attach the per-cell demux targets after construction."""
        self._cohort_buses = cell_buses
        self._cohort_cell_ids = cell_ids
        self._cohort_done = done
        self._cohort_racks = racks_per_cell
        self._cohort_servers = servers_per_cell
        cfg = self.ctx.config
        server = cfg.cluster.rack.server
        saving_w = server.peak_w - 0.1 * server.idle_w
        self._cohort_policies = [
            HierarchicalPolicy(strict=True) for _ in cell_ids
        ]
        self._cohort_shedders = [
            LoadShedder(
                cfg.policy, servers_per_cell, per_server_saving_w=saving_w
            )
            for _ in cell_ids
        ]

    def management(self, state: StepState) -> None:
        DefenseScheme.management(self, state)  # last-resort DVFS capping
        self._track_spikes(state)  # monotone counters: family-safe
        cfg = self.ctx.config
        if state.telemetry_stale:
            # Cohorts never run fault plans, so the healthy path is the
            # only reachable one; fail loud rather than diverge quietly.
            raise SimulationError("cohort PAD ran with stale telemetry")
        t = state.time_s
        R = self._cohort_racks
        S = self._cohort_servers
        F = len(self._cohort_cell_ids)
        metered = state.metered_rack_avg_w
        # Family-wide precomputes, batched per cell by row: min and any
        # are exact, and a row sum over the (cells, racks) view runs the
        # same pairwise reduction as the per-cell contiguous slice, so
        # every value is bitwise what the stock scheme would compute.
        charge_j = self.fleet.charge_vector_j().tolist()
        capacity_j = self.fleet.capacity_j_vector().tolist()
        shaver_min = (
            self.shaver.soc_vector().reshape(F, R).min(axis=1).tolist()
        )
        vp_margin = cfg.policy.visible_peak_margin
        vp_over = metered > self.soft_limits_w * (1.0 + vp_margin)
        vp_any = vp_over.reshape(F, R).any(axis=1).tolist()
        rack_over = metered - self.soft_limits_w
        over_budget = rack_over > 0.0
        over_any = over_budget.reshape(F, R).any(axis=1).tolist()
        metered_rows = metered.reshape(F, R).sum(axis=1).tolist()
        # Graceful degradation mid-sag (mirrors PadScheme.management):
        # elementwise precomputes slice bitwise per cell.
        ff = state.grid_feed_factor
        sag_over = sag_drained = None
        reserve_floor = (
            self.reserve.ride_through_floor_soc
            if self.reserve is not None
            else None
        )
        if reserve_floor is not None and ff is not None:
            sag_over = metered - ff * self.soft_limits_w
            sag_drained = (
                (sag_over > 0.0)
                & (ff < 1.0)
                & (self.telemetry.battery_soc(self.fleet) <= reserve_floor)
            )
        # The vulnerability mask needs SOC and the deliverable ceiling —
        # only racks over budget consult it, so compute it lazily.
        weak = None
        budget_w = cfg.cluster.pdu_budget_w
        vdeb_empty = cfg.policy.vdeb_empty_soc
        udeb_empty = cfg.policy.udeb_empty_soc
        done = self._cohort_done
        for k, cid in enumerate(self._cohort_cell_ids):
            if done[cid]:
                continue
            lo, hi = k * R, (k + 1) * R
            # The per-cell pool SOC mirrors the fleet's scalar property:
            # a sequential left-to-right sum over the cell's contiguous
            # block, exactly as the per-cell fleet computes it.
            total_charge = float(sum(charge_j[lo:hi]))
            total_capacity = float(sum(capacity_j[lo:hi]))
            pool_soc = total_charge / total_capacity if total_capacity else 0.0
            if reserve_floor is not None:
                # Same rescale as PadScheme._vdeb_pool_available: only
                # the defense slice above the ride-through floor counts.
                pool_soc = max(
                    0.0, (pool_soc - reserve_floor) / (1.0 - reserve_floor)
                )
            inputs = PolicyInputs(
                vdeb_available=pool_soc > vdeb_empty,
                udeb_available=shaver_min[k] > udeb_empty,
                visible_peak=vp_any[k],
            )
            policy = self._cohort_policies[k]
            before = policy.peek()
            level = policy.update(inputs)
            bus = self._cohort_buses[k]
            if before is not None and level is not before:
                bus.publish(PolicyEscalation(
                    time_s=t, from_level=before, to_level=level,
                ))
            required = 0.0
            cluster_excess = metered_rows[k] - budget_w
            if cluster_excess > 0.0 or level is SecurityLevel.EMERGENCY:
                required += max(cluster_excess, 0.0)
            if over_any[k]:
                if weak is None:
                    soc = self.telemetry.battery_soc(self.fleet)
                    deliverable = self.fleet.max_discharge_vector(state.dt)
                    weak = (soc < self.VULNERABLE_SOC) | (
                        deliverable < rack_over
                    )
                sl = slice(lo, hi)
                vulnerable = weak[sl] & over_budget[sl]
                required += float(rack_over[sl][vulnerable].sum())
            prefer = None
            if sag_drained is not None:
                drained = sag_drained[lo:hi]
                if drained.any():
                    required += float(sag_over[lo:hi][drained].sum())
                    prefer = np.repeat(drained, S // R)
            shedder = self._cohort_shedders[k]
            if required <= 0.0 and not shedder.any_asleep:
                # Nothing to shed, nothing to wake: ``update`` would be
                # a structural no-op returning an unchanged mask.
                continue
            ssl = slice(k * S, (k + 1) * S)
            decision = shedder.update(
                t, state.metered_server_util[ssl], required,
                prefer=prefer,
            )
            if decision.changed:
                bus.publish(SheddingAction(
                    time_s=t,
                    shed=decision.newly_shed,
                    woken=decision.newly_released,
                ))
            self.asleep_servers[ssl] = decision.asleep


class CohortSimulation(DataCenterSimulation):
    """N sibling cells stepped as one stacked simulation.

    Reuses the parent's stage pipeline wholesale: workload, demand,
    protection and metering run verbatim on the composite arrays, while
    attack, defense, accounting and rack-darkening are overridden to
    respect cell boundaries. See the module docstring for the stacking
    rules that make the result bit-identical per cell.

    Args:
        config: The *single-cell* data-center configuration every cell
            shares (flat topology; multi-PDU cells are not stackable).
        trace: The shared workload trace (single-cell width; tiled
            internally).
        cells: The sibling cells, in caller order. Results come back in
            this order.
        management_interval_s: Software-plane cadence (shared).
        overshoot_tolerance: Breaker margin over the soft limits.
    """

    def __init__(
        self,
        config: DataCenterConfig,
        trace: UtilizationTrace,
        cells: "Sequence[CohortCell]",
        management_interval_s: float = 10.0,
        overshoot_tolerance: float = 0.03,
        kernels: str = "numpy",
    ) -> None:
        if not cells:
            raise SimulationError("a cohort needs at least one cell")
        if config.cluster.topology is not None:
            raise SimulationError(
                "cohort cells must use a flat (single-PDU) topology"
            )
        for cell in cells:
            if cell.scheme not in SCHEMES:
                raise SimulationError(f"unknown scheme: {cell.scheme!r}")
        self.backend = "vectorized"
        self.kernels = resolve_kernels(kernels)
        self.config = config
        self._overshoot_tolerance = overshoot_tolerance
        cell_racks = config.cluster.racks
        cell_servers = config.cluster.total_servers
        n_cells = len(cells)
        self._racks_per_cell = cell_racks
        self._servers_per_cell = cell_servers
        self._n_cells = n_cells
        # Stable sort groups same-scheme cells into contiguous family
        # blocks, preserving caller order inside each family; run_cohort
        # maps results back to caller order.
        self._order = sorted(range(n_cells), key=lambda i: cells[i].scheme)
        ordered = [cells[i] for i in self._order]
        self.cluster = ClusterModel(
            replace(config.cluster, racks=cell_racks * n_cells)
        )
        if trace.machines < cell_servers:
            raise SimulationError(
                f"trace has {trace.machines} machines; each cell needs "
                f"{cell_servers}"
            )
        self.trace = UtilizationTrace(
            np.tile(trace.matrix[:, :cell_servers], (1, n_cells)),
            trace.interval_s,
            start_s=trace.start_s,
        )
        self.bus = EventBus(record=False)
        racks = self.cluster.racks
        budget_w = config.cluster.pdu_budget_w
        self.topology = _stacked_topology(n_cells, cell_racks, budget_w)
        topo = self.topology
        self._n_mid = topo.n_mid_breakers
        pdu_of_rack = topo.rack_to_pdu
        self.soft_limits_w = (
            topo.pdu_budget_w[pdu_of_rack] / topo.pdu_rack_counts[pdu_of_rack]
        )
        self.rating_w = self.soft_limits_w * (1.0 + overshoot_tolerance)
        # Each cell's mid-tier breaker carries the rating the per-cell
        # run gives its cluster breaker; the composite root is rated inf
        # so it can neither overload nor trip.
        self._cluster_rated_w = np.inf
        self._pdu_rated_w = topo.pdu_budget_w * (1.0 + overshoot_tolerance)
        bank_ratings = np.empty(topo.n_breakers)
        bank_ratings[:racks] = self.rating_w
        bank_ratings[racks:-1] = self._pdu_rated_w
        bank_ratings[-1] = self._cluster_rated_w
        self.breakers = make_breaker_bank(
            "vectorized", config.cluster.rack.breaker, bank_ratings,
            kernels=self.kernels,
        )
        self._mgmt_interval = management_interval_s
        self._repair_time_s = None
        self._meter_energy = np.zeros(racks)
        self._meter_util = np.zeros(self.cluster.servers)
        self._meter_time = 0.0
        self._metered_rack_avg = self.soft_limits_w.copy()
        self._metered_server_util = np.zeros(self.cluster.servers)
        self._rack_down_until = np.full(racks, -np.inf)
        self._was_over = np.zeros(topo.n_breakers, dtype=bool)
        self._server_rack_index = (
            np.arange(self.cluster.servers) // config.cluster.rack.servers
        )
        self._ratings_buf = bank_ratings.copy()
        self._loads_buf = np.empty(topo.n_breakers)
        self._applied_soft_limits_w = self.soft_limits_w.copy()
        self._breaker_derate = None
        self._derate_dirty = False
        self._recorder_row_budget = None
        self._record_pdu_aggregates = False
        self._paused = None
        self.attacker = None
        self._attack_nodes = None
        self._attack_racks = ()
        self._injector = None
        self._grid = None
        self._grid_derate = None
        self._grid_dirty = False
        self.pipeline = (
            self.stage_workload,
            self.stage_attack,
            self.stage_demand,
            self.stage_defense,
            self.stage_protection,
            self.stage_accounting,
        )
        # --- cohort bookkeeping -------------------------------------- #
        self._done = np.zeros(n_cells, dtype=bool)
        self._newly_tripped: "list[int]" = []
        self._cell_buses = [EventBus(record=False) for _ in range(n_cells)]
        self._results: "list[SimResult] | None" = None
        telemetry_ttl_s = 3.0 * management_interval_s
        self._families: "list[_Family]" = []
        start = 0
        while start < n_cells:
            stop = start
            while stop < n_cells and ordered[stop].scheme == ordered[start].scheme:
                stop += 1
            self._families.append(
                self._build_family(
                    ordered[start].scheme, start, stop, telemetry_ttl_s
                )
            )
            start = stop
        self.scheme = _SchemeFacade(racks, self.cluster.servers)
        self._cell_attacks: "list[_CellAttack | None]" = []
        for position, cell in enumerate(ordered):
            attacker = cell.attacker
            if attacker is None:
                self._cell_attacks.append(None)
                continue
            nodes = np.asarray(attacker.nodes, dtype=int)
            if np.any(nodes >= cell_servers):
                raise SimulationError("attacker nodes outside the cell")
            local_racks = np.unique(nodes // config.cluster.rack.servers)
            self._cell_attacks.append(_CellAttack(
                attacker=attacker,
                onset_s=attacker.driver.config.start_s,
                server_offset=position * cell_servers,
                nodes_global=nodes + position * cell_servers,
                racks_global=tuple(
                    int(r) + position * cell_racks for r in local_racks
                ),
            ))
        onsets = [a.onset_s for a in self._cell_attacks if a is not None]
        self._min_onset_s = min(onsets) if onsets else float("inf")
        # Per-cell grid injectors, each driving a cell-local host so its
        # events and validation match the per-cell run exactly.
        from ..grid.injector import GridInjector

        self._cell_grid: "list[GridInjector | None]" = []
        self._grid_hosts: "list[_CellGridHost | None]" = []
        min_grid_edge = float("inf")
        for position, cell in enumerate(ordered):
            plan = cell.grid_plan
            if plan is None or len(plan) == 0:
                self._cell_grid.append(None)
                self._grid_hosts.append(None)
                continue
            host = _CellGridHost(
                cell_racks, self._cell_buses[position], self
            )
            self._cell_grid.append(GridInjector(plan, host))
            self._grid_hosts.append(host)
            min_grid_edge = min(min_grid_edge, min(plan.edge_times()))
        self._min_grid_edge_s = min_grid_edge
        if any(g is not None for g in self._cell_grid):
            self.pipeline = (
                self.stage_workload,
                self.stage_attack,
                self.stage_demand,
                self.stage_grid_cells,
                self.stage_defense,
                self.stage_protection,
                self.stage_accounting,
            )
        for family in self._families:
            cell_onsets = [
                self._cell_attacks[c].onset_s
                for c in family.cell_ids
                if self._cell_attacks[c] is not None
            ]
            family.min_onset_s = (
                min(cell_onsets) if cell_onsets else float("inf")
            )
            family.grid_injectors = [
                (k, self._cell_grid[cid])
                for k, cid in enumerate(family.cell_ids)
                if self._cell_grid[cid] is not None
            ]
            family.freezable = bool(family.scheme.ff_eligible)
            # Steady-drain replay additionally requires the stock
            # management/battery hooks, whose no-op and constancy
            # conditions the replay guards reproduce exactly. A reserve
            # partition disqualifies it outright: dispatch clamps the
            # request by the (draining) defense slice, so a captured
            # nonzero request would not stay constant.
            scheme_cls = type(family.scheme)
            family.drainable = (
                family.freezable
                and self.config.reserve is None
                and scheme_cls.management is DefenseScheme.management
                and scheme_cls.battery_discharge
                is DefenseScheme.battery_discharge
            )
        self._freeze_period: "int | None" = None
        self._freeze_step = 0
        self._total_steps = 0
        self._metered_prev = self._metered_rack_avg
        self.bus.subscribe(OverloadEvent, self._demux_overload)
        self.bus.subscribe(BreakerTripped, self._demux_trip)
        self._buf_battery = np.empty(racks)
        self._buf_charge = np.empty(racks)
        self._buf_udeb = np.empty(racks)
        self._buf_udeb_charge = np.empty(racks)
        self._buf_capped = np.zeros(racks, dtype=bool)
        self._buf_asleep = np.zeros(self.cluster.servers, dtype=bool)
        self._stitched_limits: "np.ndarray | None" = None
        self._demand_memo: "tuple | None" = None

    # ------------------------------------------------------------------ #
    # Construction helpers                                                #
    # ------------------------------------------------------------------ #

    def _build_family(
        self, name: str, start: int, stop: int, telemetry_ttl_s: float
    ) -> _Family:
        cell_racks = self._racks_per_cell
        cell_servers = self._servers_per_cell
        width = stop - start
        rack_sl = slice(start * cell_racks, stop * cell_racks)
        srv_sl = slice(start * cell_servers, stop * cell_servers)
        bus = EventBus(record=False)
        cell_ids = list(range(start, stop))
        # A single-cell family runs the stock scheme on the exact
        # per-cell flat code path (topology None); a wider family scopes
        # vDEB/PAD pools per cell via a family topology.
        topo = (
            None
            if width == 1
            else _stacked_topology(
                width, cell_racks, self.config.cluster.pdu_budget_w
            )
        )
        ctx = SchemeContext(
            config=self.config,
            cluster=ClusterModel(
                replace(self.config.cluster, racks=cell_racks * width)
            ),
            initial_soft_limits_w=self.soft_limits_w[rack_sl],
            branch_rating_w=self.rating_w[rack_sl],
            seed=self.config.seed,
            initial_battery_soc=1.0,
            bus=bus,
            backend="vectorized",
            telemetry_ttl_s=telemetry_ttl_s,
            topology=topo,
            kernels=self.kernels,
        )
        if name == "PAD" and width > 1:
            scheme: DefenseScheme = CohortPadScheme(ctx)
            scheme.bind_cohort(
                cell_buses=[self._cell_buses[c] for c in cell_ids],
                cell_ids=cell_ids,
                done=self._done,
                racks_per_cell=cell_racks,
                servers_per_cell=cell_servers,
            )
        else:
            scheme = SCHEMES[name](ctx)
        family = _Family(
            name=name,
            cell_ids=cell_ids,
            rack_sl=rack_sl,
            srv_sl=srv_sl,
            scheme=scheme,
            bus=bus,
        )
        if width == 1:
            bus.subscribe(
                SimEvent, self._single_cell_forwarder(cell_ids[0])
            )
        else:
            bus.subscribe(CappingChanged, self._capping_forwarder(start))
            bus.subscribe(
                SoftLimitsReassigned, self._limits_forwarder(family)
            )
            bus.subscribe(GridEvent, self._grid_event_forwarder(family))
        # Any event during a freeze-proving period means the scheme is
        # not at a fixed point; the flag vetoes the freeze decision.
        def _flag(event: SimEvent, family: _Family = family) -> None:
            family.events_in_period = True

        bus.subscribe(SimEvent, _flag)
        return family

    def _single_cell_forwarder(self, cid: int):
        """Forward a one-cell family's events verbatim (ids are local)."""
        cell_bus = self._cell_buses[cid]
        done = self._done

        def forward(event: SimEvent) -> None:
            if not done[cid]:
                cell_bus.publish(event)

        return forward

    def _capping_forwarder(self, first_cell: int):
        cell_racks = self._racks_per_cell
        done = self._done

        def forward(event: CappingChanged) -> None:
            cid = first_cell + event.rack_id // cell_racks
            if not done[cid]:
                self._cell_buses[cid].publish(CappingChanged(
                    time_s=event.time_s,
                    rack_id=event.rack_id % cell_racks,
                    capped=event.capped,
                ))

        return forward

    def _limits_forwarder(self, family: _Family):
        cell_racks = self._racks_per_cell
        done = self._done

        def forward(event: SoftLimitsReassigned) -> None:
            for k, cid in enumerate(family.cell_ids):
                if done[cid]:
                    continue
                block = event.soft_limits_w[
                    k * cell_racks:(k + 1) * cell_racks
                ]
                self._cell_buses[cid].publish(SoftLimitsReassigned(
                    time_s=event.time_s, soft_limits_w=block.copy(),
                ))

        return forward

    def _grid_event_forwarder(self, family: _Family):
        """Split a family scheme's grid transition events per cell.

        The scheme publishes :class:`RideThroughEngaged` /
        :class:`ReserveBreached` with family-local rack tuples; each
        cell's slice is republished on its own bus with cell-local ids,
        matching the per-cell run's event stream exactly.
        """
        cell_racks = self._racks_per_cell
        done = self._done

        def forward(event: GridEvent) -> None:
            by_cell: "dict[int, list[int]]" = {}
            for rack in event.racks:
                by_cell.setdefault(rack // cell_racks, []).append(
                    rack % cell_racks
                )
            for k, local_racks in by_cell.items():
                cid = family.cell_ids[k]
                if done[cid]:
                    continue
                self._cell_buses[cid].publish(type(event)(
                    time_s=event.time_s,
                    event=event.event,
                    racks=tuple(local_racks),
                ))

        return forward

    # ------------------------------------------------------------------ #
    # Event demux (composite bus -> per-cell buses)                       #
    # ------------------------------------------------------------------ #

    def _event_cell(self, rack_id: int) -> "tuple[int, int] | None":
        """Map a composite event label to ``(cell, local label)``."""
        if rack_id >= 0:
            return divmod(rack_id, self._racks_per_cell)
        if rack_id <= -2:
            # Mid-tier PDU j is cell j's cluster breaker.
            return -rack_id - 2, -1
        return None  # composite root: rated inf, never fires

    def _demux_overload(self, event: OverloadEvent) -> None:
        target = self._event_cell(event.rack_id)
        if target is None:
            return
        cid, local = target
        if self._done[cid]:
            return
        self._cell_buses[cid].publish(OverloadEvent(
            time_s=event.time_s,
            rack_id=local,
            utility_w=event.utility_w,
            rating_w=event.rating_w,
        ))

    def _demux_trip(self, event: BreakerTripped) -> None:
        target = self._event_cell(event.rack_id)
        if target is None:
            return
        cid, local = target
        self._newly_tripped.append(cid)
        if self._done[cid]:
            return
        self._cell_buses[cid].publish(BreakerTripped(
            time_s=event.time_s, rack_id=local, trip=event.trip,
        ))

    # ------------------------------------------------------------------ #
    # Overridden pipeline stages                                          #
    # ------------------------------------------------------------------ #

    def stage_attack(self, ctx: StepContext) -> None:
        assert ctx.util is not None
        if ctx.time_s < self._min_onset_s:
            # No attacker has reached its onset; every per-cell check
            # below would skip, so skip the whole loop.
            return
        down = ctx.down
        capped = self.scheme.capped_racks
        asleep = self.scheme.asleep_servers
        done = self._done
        for cid, attack in enumerate(self._cell_attacks):
            if attack is None or done[cid]:
                continue
            if ctx.time_s < attack.onset_s:
                # Pre-onset the driver returns 0.0 without touching any
                # state and max(util, 0.0) is a no-op — skip the call.
                continue
            observed = any(
                capped[r] for r in attack.racks_global
            ) or bool(np.any(asleep[attack.nodes_global]))
            success = bool(down) and any(
                r in down for r in attack.racks_global
            )
            overrides = attack.attacker.utilisation_overrides(
                ctx.time_s, observed, observed_success=success
            )
            offset = attack.server_offset
            for node, value in overrides.items():
                machine = offset + node
                if not asleep[machine]:
                    ctx.util[machine] = max(ctx.util[machine], value)

    def stage_demand(self, ctx: StepContext) -> None:
        """Parent stage with a bitwise repeat-step memo.

        Demand is a pure function of (utilisation, capped racks, asleep
        servers, dark racks). Between trace epochs — all of the benign
        prefix and most quiescent stretches — none of those inputs
        change, so the previous step's demand array is reused after a
        value-equality check on every input. Downstream stages only
        read ``ctx.demand`` / ``ctx.capped_servers`` (never mutate), so
        handing back the same arrays is bitwise what the parent would
        recompute. Meters still integrate every step.
        """
        assert ctx.util is not None
        capped = self.scheme.capped_racks
        asleep = self.scheme.asleep_servers
        memo = self._demand_memo
        if (
            memo is not None
            and ctx.down == memo[0]
            and np.array_equal(ctx.util, memo[1])
            and np.array_equal(capped, memo[2])
            and np.array_equal(asleep, memo[3])
        ):
            ctx.capped_servers = memo[4]
            ctx.asleep = asleep
            ctx.demand = memo[5]
        else:
            ctx.capped_servers = capped[self._server_rack_index]
            ctx.asleep = asleep
            ctx.demand = self.cluster.rack_power(
                ctx.util,
                capped=ctx.capped_servers,
                asleep=ctx.asleep,
                down_racks=ctx.down,
            )
            self._demand_memo = (
                list(ctx.down),
                ctx.util.copy(),
                capped.copy(),
                asleep.copy(),
                ctx.capped_servers,
                ctx.demand,
            )
        self._update_meters(ctx.demand, ctx.util, ctx.dt)

    def stage_grid_cells(self, ctx: StepContext) -> None:
        """Step every live cell's grid injector; recompose composites.

        Only in the pipeline when at least one cell carries a grid plan.
        Done (tripped) cells keep their injector frozen — their racks
        are dark and their result stream is closed, exactly like the
        per-cell ``stop_on_trip`` run never reaching the edge.
        """
        done = self._done
        for cid, injector in enumerate(self._cell_grid):
            if injector is None or done[cid]:
                continue
            injector.stage_grid(ctx)
        if self._grid_dirty:
            self._grid_dirty = False
            self._recompose_grid_derate()
        for family in self._families:
            if family.grid_injectors:
                self._compose_family_grid(family)

    def _recompose_grid_derate(self) -> None:
        """Stitch per-cell derates into the composite bank derate.

        Rack entries carry each cell's feed factor, the cell's mid-tier
        breaker its facility factor, and the root (rated ``inf``) stays
        at ``1.0``; cells without an active derate multiply by ``1.0``,
        which is bitwise a no-op on their ratings.
        """
        if all(
            host is None or host.derate is None
            for host in self._grid_hosts
        ):
            if self._grid_derate is not None:
                self._grid_derate = None
                self._derate_dirty = True
            return
        racks = self.cluster.racks
        cell_racks = self._racks_per_cell
        derate = np.ones(self.topology.n_breakers)
        for cid, host in enumerate(self._grid_hosts):
            if host is None or host.derate is None:
                continue
            lo = cid * cell_racks
            derate[lo:lo + cell_racks] = host.derate[:cell_racks]
            derate[racks + cid] = host.derate[cell_racks]
        self._grid_derate = derate
        self._derate_dirty = True

    def _compose_family_grid(self, family: _Family) -> None:
        """Stitch a family's per-cell grid inputs for this step.

        ``None`` whenever no cell's machinery is active, so grid-free
        stretches take the exact per-cell ``is None`` fast paths; cells
        without an active feed hold ``1.0`` (freg: ``0.0``), which the
        dispatch arithmetic treats bitwise as absent.
        """
        R = self._racks_per_cell
        n = len(family.cell_ids) * R
        feed = freg_w = freg_floor = None
        for k, injector in family.grid_injectors:
            cell_feed = injector.feed_factor
            if cell_feed is not None:
                if feed is None:
                    feed = np.ones(n)
                feed[k * R:(k + 1) * R] = cell_feed
            cell_w, cell_floor = injector.freg_command()
            if cell_w is not None:
                if freg_w is None:
                    freg_w = np.zeros(n)
                    freg_floor = np.zeros(n)
                freg_w[k * R:(k + 1) * R] = cell_w
                freg_floor[k * R:(k + 1) * R] = cell_floor
        family.grid_feed = feed
        family.grid_freg_w = freg_w
        family.grid_freg_floor = freg_floor

    def stage_defense(self, ctx: StepContext) -> None:
        assert ctx.demand is not None
        t = ctx.time_s
        period = self._freeze_period
        boundary = period is not None and self._freeze_step % period == 0
        # ``_update_meters`` rebinds the metered arrays at publication;
        # the identity change is the publication signal.
        pub = self._metered_rack_avg is not self._metered_prev
        if pub:
            self._metered_prev = self._metered_rack_avg
        changed = False
        for family in self._families:
            scheme = family.scheme
            view = scheme.telemetry
            view.observe(
                t,
                self._metered_rack_avg[family.rack_sl],
                self._metered_server_util[family.srv_sl],
            )
            if family.frozen or family.drain is not None:
                if (boundary and not self._frozen_valid(family, t, ctx.dt)) or (
                    pub and not self._metered_matches(family)
                ):
                    self._unfreeze(family)
                elif family.frozen:
                    # Dispatch is a proven no-op; the composite buffers
                    # already hold the family's constant outputs, and
                    # skipping the call leaves the scheme state exactly
                    # where the live path would (fleet/shaver untouched
                    # by an all-zero step, telemetry observed above).
                    continue
                elif self._drain_step(family, ctx, t):
                    continue
                # A drain guard failed before any state was touched:
                # fall through to the live path for this step.
            if boundary and family.freezable:
                self._freeze_boundary(
                    family, t, ctx.dt, ctx.demand[family.rack_sl]
                )
                if family.frozen:
                    continue
                # Unlike the full freeze, a drain replay still steps the
                # fleet — including on the entry boundary itself.
                if family.drain is not None and self._drain_step(
                    family, ctx, t
                ):
                    continue
            state = StepState(
                time_s=t,
                dt=ctx.dt,
                rack_demand_w=ctx.demand[family.rack_sl],
                metered_rack_avg_w=view.rack_avg_w(),
                metered_server_util=view.server_util(),
                # Cohorts run no fault plans and observe fresh telemetry
                # every step, so age and staleness are constants.
                telemetry_age_s=0.0,
                telemetry_stale=False,
                grid_feed_factor=family.grid_feed,
                grid_freg_w=family.grid_freg_w,
                grid_freg_floor_soc=family.grid_freg_floor,
            )
            dispatch = scheme.dispatch(state)
            if family.proving is not None:
                family.proving.append((
                    dispatch.battery_w,
                    dispatch.charge_w,
                    dispatch.udeb_w,
                    dispatch.udeb_charge_w,
                    dispatch.capped_racks,
                    dispatch.asleep_servers,
                ))
            sl = family.rack_sl
            self._buf_battery[sl] = dispatch.battery_w
            self._buf_charge[sl] = dispatch.charge_w
            self._buf_udeb[sl] = dispatch.udeb_w
            self._buf_udeb_charge[sl] = dispatch.udeb_charge_w
            self._buf_capped[sl] = dispatch.capped_racks
            self._buf_asleep[family.srv_sl] = dispatch.asleep_servers
            if dispatch.soft_limits_w is not family.limits_ref:
                family.limits_ref = dispatch.soft_limits_w
                changed = True
        if changed or self._stitched_limits is None:
            # Identity-stable stitching: the protection stage re-applies
            # breaker ratings only when this object changes, mirroring
            # the per-cell identity check.
            self._stitched_limits = np.concatenate(
                [family.limits_ref for family in self._families]
            )
        ctx.dispatch = Dispatch(
            battery_w=self._buf_battery,
            charge_w=self._buf_charge,
            udeb_w=self._buf_udeb,
            udeb_charge_w=self._buf_udeb_charge,
            capped_racks=self._buf_capped,
            asleep_servers=self._buf_asleep,
            soft_limits_w=self._stitched_limits,
        )
        ctx.utility = ctx.dispatch.utility_w(ctx.demand)
        ctx.utility[ctx.down] = 0.0

    # ------------------------------------------------------------------ #
    # Quiescent family freeze                                             #
    # ------------------------------------------------------------------ #
    #
    # An ``ff_eligible`` family at a fixed point — full battery, nothing
    # shaving, charging or capping — burns most of the cohort's step
    # budget on dispatch calls that provably change nothing. The freeze
    # proves the fixed point by matching ``ff_state`` fingerprints one
    # management period apart over an event-free captured period, and
    # requires every captured step to be *power-inert* (all
    # battery/charge/uDEB vectors zero), which makes the scheme state
    # constant at every offset of the period, not just at boundaries —
    # so recording may sample SOC anywhere. While frozen the dispatch
    # call is skipped; everything that feeds it is guarded by value:
    #
    # * trace epoch — freeze only while ``constant_until`` covers the
    #   next period *and* still equals the epoch captured against;
    # * attack onsets — the family must be onset-free for the period;
    # * breaker trips — any trip anywhere vetoes/ends freezing;
    # * metered telemetry — compared against the captured reference at
    #   every publication (rebind identity is the publication signal).
    #
    # Frozen scheme state cannot drift: dispatch is skipped, telemetry
    # is still observed live, and nothing else touches the scheme.

    def _freeze_guards(
        self, family: _Family, t: float, dt: float
    ) -> "tuple[bool, float]":
        """``(guards pass, trace epoch end)`` for a period starting at t."""
        assert self._freeze_period is not None
        until = self.trace.constant_until(t)
        ok = (
            not self.breakers.any_tripped
            and until >= t + (self._freeze_period + 1) * dt
            and family.min_onset_s >= t + self._freeze_period * dt
        )
        if ok and family.grid_injectors:
            # Never freeze across (or inside) a grid window: an open
            # window perturbs dispatch, and ``stage_grid_cells`` keeps
            # running while a family is frozen, so an edge inside the
            # period would change inputs the skipped dispatch never
            # sees. Probe one step back: an edge landing exactly on t
            # has not been applied yet when this guard runs.
            horizon = t + (self._freeze_period + 1) * dt
            for _, injector in family.grid_injectors:
                if (
                    injector.any_active
                    or injector.next_edge_after(t - dt) < horizon
                ):
                    ok = False
                    break
        return ok, until

    def _metered_matches(self, family: _Family) -> bool:
        ref = family.metered_ref
        assert ref is not None
        return np.array_equal(
            self._metered_rack_avg[family.rack_sl], ref[0]
        ) and np.array_equal(
            self._metered_server_util[family.srv_sl], ref[1]
        )

    def _frozen_valid(self, family: _Family, t: float, dt: float) -> bool:
        ok, until = self._freeze_guards(family, t, dt)
        return ok and until == family.trace_until

    def _unfreeze(self, family: _Family) -> None:
        family.frozen = False
        family.drain = None
        family.last_fp = None
        family.proving = None
        family.proving_metered = None
        family.metered_ref = None

    def _freeze_boundary(
        self, family: _Family, t: float, dt: float, demand: np.ndarray
    ) -> None:
        """Per-management-period freeze bookkeeping for a live family."""
        ok, until = self._freeze_guards(family, t, dt)
        if not ok:
            family.last_fp = None
            family.trace_until = until
            family.proving = None
            family.proving_metered = None
            family.events_in_period = False
            return
        proving = family.proving
        complete = (
            proving is not None
            and len(proving) == self._freeze_period
            and not family.events_in_period
            and family.proving_metered is not None
            and np.array_equal(
                self._metered_rack_avg[family.rack_sl],
                family.proving_metered[0],
            )
            and np.array_equal(
                self._metered_server_util[family.srv_sl],
                family.proving_metered[1],
            )
            and until == family.trace_until
        )
        new_fp = None
        if complete:
            first = proving[0]
            constant = all(
                np.array_equal(first[0], step[0])
                and np.array_equal(first[4], step[4])
                and np.array_equal(first[5], step[5])
                for step in proving[1:]
            )
            if constant and not first[0].any() and not any(
                step[1].any() or step[2].any() or step[3].any()
                for step in proving
            ):
                # Power-inert candidate: every captured output silent.
                # A full freeze needs two such clean periods in a row
                # with matching state fingerprints.
                fp = state_fingerprint(family.scheme.ff_state(t))
                if fp == family.last_fp:
                    family.frozen = True
                    family.last_fp = fp
                    family.metered_ref = family.proving_metered
                    self._park_outputs(family, first)
                    family.proving = None
                    family.events_in_period = False
                    return
                new_fp = fp
            elif (
                constant
                and family.drainable
                and not family.scheme._cap_busy
                and self._enter_drain(family, t, dt, demand, first)
            ):
                family.metered_ref = family.proving_metered
                self._park_outputs(family, first)
                family.proving = None
                family.events_in_period = False
                return
        # ``last_fp`` must always be the fingerprint of the immediately
        # preceding clean inert capture (or None): the full freeze's
        # proof is a *lag-1* match, never a match across a gap.
        family.last_fp = new_fp
        family.trace_until = until
        family.proving = []
        family.proving_metered = (
            self._metered_rack_avg[family.rack_sl].copy(),
            self._metered_server_util[family.srv_sl].copy(),
        )
        family.events_in_period = False

    def _park_outputs(self, family: _Family, out: tuple) -> None:
        """Write a captured constant dispatch into the composite buffers."""
        sl = family.rack_sl
        self._buf_battery[sl] = out[0]
        self._buf_charge[sl] = out[1]
        self._buf_udeb[sl] = out[2]
        self._buf_udeb_charge[sl] = out[3]
        self._buf_capped[sl] = out[4]
        self._buf_asleep[family.srv_sl] = out[5]

    def _enter_drain(
        self,
        family: _Family,
        t: float,
        dt: float,
        demand: np.ndarray,
        out: tuple,
    ) -> bool:
        """Arm steady-drain replay; False when the state disqualifies it.

        The captured period proves the battery output and the server
        masks constant with no events. Replay then only needs the battery
        *request* to stay constant, which the stock hooks guarantee while
        demand, metered averages and soft limits hold (all guarded) and
        the fleet's deliverable ceiling is not the binding clamp (checked
        here once, then re-checked read-only every replay step):
        ``delivered == request`` is a kernel invariant whenever
        ``request <= max_discharge_vector`` at the same fleet version.
        Charging needs no constancy at all — its inputs (headroom,
        active) are constant refs, so the replay just runs the charger
        live each step, exactly as dispatch would.
        """
        scheme = family.scheme
        limits = scheme.soft_limits_w
        need = np.maximum(0.0, demand - limits)
        if scheme.uses_peak_shaving:
            request = np.minimum(need, demand)
        else:
            request = np.zeros_like(need)
        deliverable = scheme.fleet.max_discharge_vector(dt)
        if not (
            np.all(deliverable >= request)
            and np.array_equal(out[0], request)
        ):
            # The fleet ceiling is (or was) the binding clamp: the
            # request would track the draining fleet, not a constant.
            return False
        headroom = limits - (demand - request)
        active = (request <= 0.0) & (headroom > 0.0)
        cap_idx = cap_need = None
        if scheme.uses_capping:
            need_m = scheme.telemetry.rack_avg_w() - limits
            cap_idx = np.nonzero(need_m > 0.0)[0]
            cap_need = need_m[cap_idx].copy()
        udeb_live = (
            type(scheme).after_battery is not DefenseScheme.after_battery
        )
        residual = np.maximum(0.0, need - request)
        family.drain = {
            "request": request,
            "headroom": headroom,
            "active": active,
            "residual": residual,
            "cap_idx": cap_idx,
            "cap_need": cap_need,
            "udeb_live": udeb_live,
            "fused": None,
            "block": None,
        }
        if self.kernels == "compiled" and get_kernels() is not None:
            udeb_mode, _ = scheme._fused_udeb_mode()
            if scheme._fused_charger_mode >= 0 and udeb_mode != 2:
                # All the uDEB stage's inputs are drain constants, so its
                # recharge headroom is one too — precomputed here with
                # ``after_battery``'s exact numpy expression.
                headroom_udeb = (
                    np.where(
                        residual <= 0.0,
                        np.maximum(0.0, limits - demand),
                        0.0,
                    )
                    if udeb_mode == 1
                    else None
                )
                family.drain["fused"] = (udeb_mode, headroom_udeb)
        return True

    def _drain_step(
        self, family: _Family, ctx: StepContext, t: float
    ) -> bool:
        """One steady-drain replay step; False bails to live (untouched).

        Guard order matters: everything before the charger call is
        read-only, so a failed guard can hand the step to the live path
        with no state to unwind. The charger itself runs live — same
        object, same (constant) inputs as dispatch would pass — and its
        per-step output is written through to the composite buffers.

        Under the compiled kernel tier an eligible family instead
        advances a whole management period in one ``drain_block`` call
        (the per-tick guards run inside the kernel, pre-mutation) and
        the per-step buffer rows are served from the block's cache.
        """
        drain = family.drain
        assert drain is not None
        block = drain["block"]
        if block is not None:
            return self._serve_drain_row(family, drain, block)
        if drain["fused"] is not None:
            served = self._start_drain_block(family, ctx, t)
            if served is not None:
                return served
        scheme = family.scheme
        fleet = scheme.fleet
        dt = ctx.dt
        deliverable = fleet.max_discharge_vector(dt)
        request = drain["request"]
        ok = bool(np.all(deliverable >= request))
        if ok and drain["cap_need"] is not None:
            # Base management caps a rack when the metered excess beats
            # the deliverable ceiling; all-quiet is what lets the replay
            # skip the management call.
            ok = bool(np.all(deliverable[drain["cap_idx"]] >= drain["cap_need"]))
        if not ok:
            self._unfreeze(family)
            return False
        charge = scheme.charger.fleet_charge_power(
            fleet, drain["headroom"], drain["active"], dt
        )
        delivered = fleet.step(request, charge, dt, t)
        sl = family.rack_sl
        self._buf_battery[sl] = delivered
        self._buf_charge[sl] = charge
        if drain["udeb_live"]:
            view = scheme.telemetry
            state = StepState(
                time_s=t,
                dt=dt,
                rack_demand_w=ctx.demand[sl],
                metered_rack_avg_w=view.rack_avg_w(),
                metered_server_util=view.server_util(),
                telemetry_age_s=0.0,
                telemetry_stale=False,
            )
            udeb_w, udeb_charge_w = scheme.after_battery(
                state, drain["residual"]
            )
            self._buf_udeb[sl] = udeb_w
            self._buf_udeb_charge[sl] = udeb_charge_w
        return True

    def _start_drain_block(
        self, family: _Family, ctx: StepContext, t: float
    ) -> "bool | None":
        """Advance a fused drain family one compiled block; serve tick 0.

        Returns ``None`` when the kernel namespace vanished (the
        per-step replay then takes over), ``False`` when the kernel's
        first-tick guard failed (state untouched, family unfrozen, the
        live path runs this step), ``True`` otherwise.

        The block spans from the current boundary to the next one —
        never across it, so every boundary check (``_frozen_valid``,
        metered publications) still runs on live state — bounded by the
        steps left in the run so the fleet never advances past the final
        step. A mid-block guard failure returns a short count from the
        kernel *before* mutating that tick; the cached rows are served
        and the failing tick is handed to the live path with the state
        exactly where the per-step replay would have left it.
        """
        kernels = get_kernels()
        if kernels is None:
            return None
        period = self._freeze_period
        assert period is not None
        n_steps = min(
            period - self._freeze_step % period,
            self._total_steps - self._freeze_step,
        )
        if n_steps <= 0:
            return None
        drain = family.drain
        scheme = family.scheme
        fleet = scheme.fleet
        cells = fleet._cells
        dt = ctx.dt
        request = drain["request"]
        n = len(request)
        udeb_mode, headroom_udeb = drain["fused"]
        if drain["cap_need"] is not None:
            cap_idx = np.ascontiguousarray(drain["cap_idx"], dtype=np.int64)
            cap_need = np.ascontiguousarray(drain["cap_need"], dtype=float)
            n_cap = len(cap_idx)
        else:
            cap_idx = _UNUSED_I64
            cap_need = _UNUSED_F64
            n_cap = 0
        scalars = scheme._fused_scalar_args(dt)
        y1 = cells._y1.copy()
        y2 = cells._y2.copy()
        disc = fleet._disconnected.copy().view(np.uint8)
        if scheme._fused_charger_mode == 1:
            off = getattr(fleet, OfflineCharger.STATE_ATTR, None)
            off = np.zeros(n, dtype=bool) if off is None else off.copy()
            off_u8 = off.view(np.uint8)
            recharge_soc = scheme.charger._recharge_soc
            full_soc = scheme.charger._full_soc
        else:
            off = None
            off_u8 = _UNUSED_U8
            recharge_soc = 0.0
            full_soc = 0.0
        if udeb_mode == 1:
            sc_state = scheme.shaver._state
            sc_cfg = sc_state._config
            sc_charge = sc_state._charge_j.copy()
            sc_flags = np.array([1 if sc_state._full else 0], np.int64)
            sc_args = (
                sc_charge, sc_state._shave_events, sc_state._shaved_j,
                sc_flags, sc_state._capacity_j, sc_cfg.efficiency,
                sc_cfg.max_power_w, sc_cfg.max_charge_w,
                sc_cfg.efficiency * dt,
            )
            hu = np.ascontiguousarray(headroom_udeb, dtype=float)
            udeb_rows = np.empty(n_steps * n)
            udeb_charge_rows = np.empty(n_steps * n)
        else:
            sc_state = None
            sc_charge = None
            sc_flags = None
            sc_args = (
                _UNUSED_F64, _UNUSED_I64, _UNUSED_F64, _UNUSED_I64,
                0.0, 1.0, 0.0, 0.0, 1.0,
            )
            hu = _UNUSED_F64
            udeb_rows = _UNUSED_F64
            udeb_charge_rows = _UNUSED_F64
        charge_rows = np.empty(n_steps * n)
        soc_rows = np.empty(n_steps * n)
        completed = int(kernels.drain_block(
            n_steps, n,
            np.ascontiguousarray(request, dtype=float),
            np.ascontiguousarray(drain["headroom"], dtype=float),
            np.ascontiguousarray(drain["active"]).view(np.uint8),
            np.ascontiguousarray(drain["residual"], dtype=float),
            hu, n_cap, cap_idx, cap_need,
            y1, y2, cells._capacity_j, cells._cap_available,
            cells._cap_bound, disc,
            fleet._discharged_j, fleet._charged_j,
            fleet._deep_discharge_events,
            *scalars,
            scheme._fused_charger_mode, off_u8, recharge_soc, full_soc,
            udeb_mode, *sc_args,
            charge_rows, udeb_rows, udeb_charge_rows, soc_rows,
        ))
        if completed == 0:
            self._unfreeze(family)
            return False
        cells._y1 = y1
        cells._y2 = y2
        cells._version += completed
        fleet._disconnected = disc.view(bool)
        if off is not None:
            setattr(fleet, OfflineCharger.STATE_ATTR, off)
        if udeb_mode == 1:
            sc_state._charge_j = sc_charge
            sc_state._full = bool(sc_flags[0])
        block = {
            "planned": n_steps,
            "completed": completed,
            "cursor": 0,
            "n": n,
            "charge": charge_rows,
            "udeb": udeb_rows,
            "udeb_charge": udeb_charge_rows,
            "soc": soc_rows,
        }
        drain["block"] = block
        return self._serve_drain_row(family, drain, block)

    def _serve_drain_row(
        self, family: _Family, drain: dict, block: dict
    ) -> bool:
        """Serve one cached drain-block tick into the composite buffers."""
        cursor = block["cursor"]
        if cursor >= block["completed"]:
            # The kernel's guard failed at this tick, pre-mutation: hand
            # it to the live path exactly as the per-step replay would.
            self._unfreeze(family)
            return False
        sl = family.rack_sl
        n = block["n"]
        row = slice(cursor * n, (cursor + 1) * n)
        # ``delivered == request`` is the drain invariant the guards
        # enforce, so the battery row is the constant request itself.
        self._buf_battery[sl] = drain["request"]
        self._buf_charge[sl] = block["charge"][row]
        if drain["udeb_live"]:
            self._buf_udeb[sl] = block["udeb"][row]
            self._buf_udeb_charge[sl] = block["udeb_charge"][row]
        block["cursor"] = cursor + 1
        if block["cursor"] == block["completed"] == block["planned"]:
            # Block fully consumed exactly at the next boundary; the
            # fleet state is live again and the next drain step (if the
            # boundary checks hold) arms a fresh block.
            drain["block"] = None
        return True

    def stage_accounting(self, ctx: StepContext) -> None:
        assert ctx.util is not None and ctx.dispatch is not None
        assert self._results is not None
        u = np.clip(ctx.util, 0.0, 1.0)
        delivered = self.cluster.delivered_vector(
            u, ctx.capped_servers, ctx.asleep, ctx.down
        )
        n_cells = self._n_cells
        cell_servers = self._servers_per_cell
        delivered_rows = (
            delivered.reshape(n_cells, cell_servers).sum(axis=1).tolist()
        )
        demanded_rows = (
            u.reshape(n_cells, cell_servers).sum(axis=1).tolist()
        )
        done = self._done
        dt = ctx.dt
        for cid in range(n_cells):
            if done[cid]:
                continue
            result = self._results[cid]
            result.delivered_work += delivered_rows[cid] * dt
            result.demanded_work += demanded_rows[cid] * dt
        if ctx.record:
            self._record_cells(ctx)

    def _record_cells(self, ctx: StepContext) -> None:
        assert ctx.demand is not None and ctx.utility is not None
        assert ctx.dispatch is not None and self._results is not None
        dispatch = ctx.dispatch
        cell_racks = self._racks_per_cell
        cell_servers = self._servers_per_cell
        n_cells = self._n_cells
        done = self._done
        # Row-wise reductions over the (cells, racks) stack reduce each
        # contiguous row exactly like the per-cell np.sum/mean/std over
        # the same memory, so the recorded scalars stay bitwise equal.
        shape = (n_cells, cell_racks)
        demand_rows = ctx.demand.reshape(shape).sum(axis=1).tolist()
        utility_rows = ctx.utility.reshape(shape).sum(axis=1).tolist()
        battery_rows = dispatch.battery_w.reshape(shape).sum(axis=1).tolist()
        udeb_rows = dispatch.udeb_w.reshape(shape).sum(axis=1).tolist()
        capped_rows = dispatch.capped_racks.reshape(shape).sum(axis=1).tolist()
        asleep_rows = (
            dispatch.asleep_servers
            .reshape(n_cells, cell_servers).sum(axis=1).tolist()
        )
        t = ctx.time_s
        for family in self._families:
            soc = self._family_soc(family)
            soc_rows = soc.reshape(len(family.cell_ids), cell_racks)
            mean_rows = soc_rows.mean(axis=1).tolist()
            std_rows = soc_rows.std(axis=1).tolist()
            for local, cid in enumerate(family.cell_ids):
                if done[cid]:
                    continue
                soc_cell = soc[local * cell_racks:(local + 1) * cell_racks]
                recorder = self._results[cid].recorder
                recorder.append_row(
                    time_s=t,
                    total_demand_w=demand_rows[cid],
                    total_utility_w=utility_rows[cid],
                    battery_w=battery_rows[cid],
                    udeb_w=udeb_rows[cid],
                    fleet_soc_mean=mean_rows[local],
                    fleet_soc_std=std_rows[local],
                    capped_racks=float(capped_rows[cid]),
                    asleep_servers=float(asleep_rows[cid]),
                )
                recorder.append_vector("rack_soc", soc_cell)
                recorder.append_vector(
                    "rack_utility_w",
                    ctx.utility[cid * cell_racks:(cid + 1) * cell_racks],
                )

    def _family_soc(self, family: _Family) -> np.ndarray:
        """This step's post-step SOC vector for recording, block-aware.

        Mid drain-block the fleet already sits at the block's end, so
        the recorded SOC comes from the kernel's cached per-step rows
        (the cursor has advanced past the current tick by the time
        accounting runs). Everywhere else the live fleet is current.
        """
        drain = family.drain
        if drain is not None:
            block = drain["block"]
            if block is not None:
                n = block["n"]
                cursor = block["cursor"]
                return block["soc"][(cursor - 1) * n:cursor * n]
        return family.scheme.fleet.soc_vector()
        # Vectorized: the parent's per-rack Python loop is a hot-path
        # liability at cohort width. No repair in cohort runs.
        if not self.breakers.any_tripped:
            return []
        racks = self.cluster.racks
        tripped = self.breakers.tripped
        down = np.nonzero(tripped[:racks])[0]
        mids = np.nonzero(tripped[racks:-1])[0]
        if mids.size:
            dark = set(int(i) for i in down)
            cell_racks = self._racks_per_cell
            for j in mids:
                start = int(j) * cell_racks
                dark.update(range(start, start + cell_racks))
            return sorted(dark)
        return [int(i) for i in down]

    # ------------------------------------------------------------------ #
    # Running                                                             #
    # ------------------------------------------------------------------ #

    def _refresh_facade(self) -> None:
        for family in self._families:
            self.scheme.capped_racks[family.rack_sl] = (
                family.scheme.capped_racks
            )
            self.scheme.asleep_servers[family.srv_sl] = (
                family.scheme.asleep_servers
            )

    def adopt_prefix(self, narrow: "CohortSimulation") -> None:
        """Overwrite this fresh cohort's state with ``narrow``'s, tiled.

        ``narrow`` is a finished one-cell-per-scheme cohort of the same
        config/trace whose families line up one-to-one with ours (both
        constructors sort by scheme name). Every piece of evolving state
        — scheme internals, meters, breaker heat — is copied across,
        each family's single narrow cell tiled over the family's width.
        Valid only before :meth:`run_cohort` and only when ``narrow``
        finished with no cell done (no trips).
        """
        if self._results is not None:
            raise SimulationError("adopt_prefix must precede run_cohort")
        if len(narrow._families) != len(self._families):
            raise SimulationError("family layout mismatch")
        if narrow._done.any():
            raise SimulationError("cannot adopt a prefix with done cells")
        racks_w = self.cluster.racks
        racks_n = narrow.cluster.racks
        for F, N in zip(self._families, narrow._families):
            if F.name != N.name or len(N.cell_ids) != 1:
                raise SimulationError("family layout mismatch")
            reps = len(F.cell_ids)
            for name in (
                "_meter_energy",
                "_metered_rack_avg",
                "_applied_soft_limits_w",
                "_rack_down_until",
            ):
                wide_arr = getattr(self, name)
                narrow_arr = getattr(narrow, name)
                wide_arr[F.rack_sl] = np.tile(narrow_arr[N.rack_sl], reps)
            for name in ("_meter_util", "_metered_server_util"):
                wide_arr = getattr(self, name)
                narrow_arr = getattr(narrow, name)
                wide_arr[F.srv_sl] = np.tile(narrow_arr[N.srv_sl], reps)
            # Breaker sections: rack block tiled; each of the family's
            # mid-tier (per-cell cluster) breakers mirrors the narrow
            # cell's mid breaker.
            self.breakers._heat[F.rack_sl] = np.tile(
                narrow.breakers._heat[N.rack_sl], reps
            )
            self._was_over[F.rack_sl] = np.tile(
                narrow._was_over[N.rack_sl], reps
            )
            narrow_mid = racks_n + N.cell_ids[0]
            for cid in F.cell_ids:
                self.breakers._heat[racks_w + cid] = (
                    narrow.breakers._heat[narrow_mid]
                )
                self._was_over[racks_w + cid] = narrow._was_over[narrow_mid]
            _tile_state(F.scheme, N.scheme, reps)
            if isinstance(F.scheme, CohortPadScheme):
                # The narrow cell ran the stock PadScheme; its policy
                # and shedder become every sibling's per-cell copy.
                F.scheme._cohort_policies = [
                    copy.deepcopy(N.scheme.policy) for _ in F.cell_ids
                ]
                F.scheme._cohort_shedders = [
                    copy.deepcopy(N.scheme.shedder) for _ in F.cell_ids
                ]
        self.breakers._heat[-1] = narrow.breakers._heat[-1]
        self._was_over[-1] = narrow._was_over[-1]
        self._meter_time = narrow._meter_time
        # Replicate the narrow run's pending-publication flag: metered
        # arrays rebound on the narrow side iff they differ by identity.
        if narrow._metered_rack_avg is not narrow._metered_prev:
            self._metered_prev = self._metered_rack_avg.copy()
        else:
            self._metered_prev = self._metered_rack_avg

    def run_cohort(
        self,
        start_s: float,
        end_s: float,
        dt: float,
        record_every: int = 1,
        *,
        _seed_results: "list[SimResult] | None" = None,
        _start_step: int = 0,
    ) -> "list[SimResult]":
        """Step every cell from ``start_s`` to ``end_s``.

        Semantics per cell match the per-cell backend's single fine
        segment with ``stop_on_trip=True``: a cell whose breaker trips
        finishes that step (accounting and recording included), its
        result ends at the following step boundary, and it is frozen out
        of the cohort while the others continue. Results come back in
        the caller's cell order.

        ``_seed_results`` / ``_start_step`` are the private seam
        :func:`run_cohort_expanded` uses to continue a tiled prefix:
        pre-filled results (internal family order) keep accumulating,
        and the loop starts at step ``_start_step`` so every step time
        ``start_s + i * dt`` stays bitwise on the original grid.
        """
        if self._results is not None:
            raise SimulationError("a cohort can only be run once")
        if record_every < 1:
            raise SimulationError("record_every must be at least 1")
        results: "list[SimResult]" = []
        unsubscribes: "list" = []
        for cid in range(self._n_cells):
            attack = self._cell_attacks[cid]
            family = next(
                f for f in self._families if cid in f.cell_ids
            )
            if _seed_results is not None:
                result = _seed_results[cid]
                # The seed ran benign; this cell may not be.
                result.attack_start_s = (
                    attack.onset_s if attack is not None else None
                )
            else:
                result = SimResult(
                    scheme=family.scheme.name,
                    start_s=start_s,
                    end_s=start_s,
                    attack_start_s=(
                        attack.onset_s if attack is not None else None
                    ),
                    recorder=Recorder(),
                )
            results.append(result)
            bus = self._cell_buses[cid]
            unsubscribes.extend((
                bus.subscribe(SimEvent, result.events.append),
                bus.subscribe(OverloadEvent, result.overloads.append),
                bus.subscribe(
                    BreakerTripped,
                    (lambda r: lambda e: r.trips.append(e.trip))(result),
                ),
                bus.subscribe(FaultEvent, result.faults.append),
                bus.subscribe(GridEvent, result.grid.append),
            ))
        self._results = results
        scratch = SimResult(
            scheme="cohort", start_s=start_s, end_s=start_s,
            attack_start_s=None,
        )
        done = self._done
        live = self._n_cells
        step_index = _start_step
        # The quiescent freeze works on the management-period grid; a
        # non-integral period (never the case in practice) disables it.
        period_steps = self._mgmt_interval / dt
        period = int(round(period_steps))
        self._freeze_period = (
            period
            if period > 0 and abs(period_steps - period) < 1e-9
            else None
        )
        # Exact step count of this run, replicating the loop condition
        # below, so a compiled drain block can never advance a fleet past
        # the final step (prefix expansion tiles the state as-is).
        n_total = max(_start_step, int(math.ceil(
            max(0.0, end_s - 1e-9 - start_s) / dt
        )))
        while start_s + n_total * dt < end_s - 1e-9:
            n_total += 1
        while n_total > _start_step and not (
            start_s + (n_total - 1) * dt < end_s - 1e-9
        ):
            n_total -= 1
        self._total_steps = n_total
        try:
            while start_s + step_index * dt < end_s - 1e-9:
                time_s = start_s + step_index * dt
                self._freeze_step = step_index
                self._refresh_facade()
                self._newly_tripped.clear()
                ctx = StepContext(
                    time_s=time_s,
                    dt=dt,
                    result=scratch,
                    record=step_index % record_every == 0,
                )
                for stage in self.pipeline:
                    stage(ctx)
                step_index += 1
                if self._newly_tripped:
                    boundary = start_s + step_index * dt
                    for cid in self._newly_tripped:
                        if not done[cid]:
                            done[cid] = True
                            results[cid].end_s = boundary
                            live -= 1
                    if live == 0:
                        break
        finally:
            for unsubscribe in unsubscribes:
                unsubscribe()
        final = start_s + step_index * dt
        for cid in range(self._n_cells):
            if not done[cid]:
                results[cid].end_s = final
        # Back to caller order.
        ordered_results: "list[SimResult | None]" = [None] * self._n_cells
        for position, result in enumerate(results):
            ordered_results[self._order[position]] = result
        return ordered_results  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Narrow-prefix expansion                                                 #
# ---------------------------------------------------------------------- #

#: Attributes ``_tile_state`` must leave alone: shared identity/config
#: objects, structural layout that is width-dependent by construction
#: (pool tables, rack/server counts), and the cohort PAD's per-cell
#: machinery, which ``adopt_prefix`` seeds explicitly.
_TILE_SKIP = frozenset({
    "ctx",
    "bus",
    "config",
    "_config",
    "cluster",
    "_cluster",
    "_server_model",
    "_rack_of",
    "_pdu_pools",
    "_peak_decay",
    "_racks",
    "_servers",
    "_per_rack",
    "_max_shed",
    "_shape",
    "_cohort_buses",
    "_cohort_cell_ids",
    "_cohort_done",
    "_cohort_racks",
    "_cohort_servers",
    "_cohort_policies",
    "_cohort_shedders",
})

#: Version-keyed derived caches: cheaper (and exactly equivalent) to drop
#: and let the wide side rebuild lazily than to re-key and tile.
_TILE_DROP = frozenset({
    "_max_charge_memo",
    "_max_discharge_memo",
    "_max_charge_cache",
    "_max_discharge_cache",
    "_soc_cache",
    "_coeff_cache",
    # dt-keyed scalar-coefficient cache for the compiled kernels:
    # width-independent and derived purely from config, so dropping it
    # and letting the wide side rebuild is exactly equivalent.
    "_fused_coeffs",
})

_TILE_SCALARS = (bool, int, float, str, bytes, np.generic)


def _tile_state(wide_obj, narrow_obj, reps: int, _seen: "set | None" = None):
    """Overwrite ``wide_obj``'s evolving state with ``reps`` copies of
    ``narrow_obj``'s, attribute by attribute.

    The two objects are the same scheme (or one of its stateful
    sub-objects) built over ``reps`` identical cells and one cell
    respectively. Arrays ``reps`` times as long are tiled; same-shape
    arrays are copied in place (preserving identity held by views);
    per-rack object lists are deep-copied per repetition; repro-package
    sub-objects recurse. Anything unrecognised raises — silent skips
    would surface as bit-divergence far from the cause.
    """
    if _seen is None:
        _seen = set()
    if id(narrow_obj) in _seen:
        return
    _seen.add(id(narrow_obj))
    for name, nval in vars(narrow_obj).items():
        if name in _TILE_SKIP:
            continue
        if name in _TILE_DROP:
            setattr(wide_obj, name, None)
            continue
        missing = not hasattr(wide_obj, name)
        wval = getattr(wide_obj, name, None)
        if isinstance(nval, np.ndarray):
            if missing or not isinstance(wval, np.ndarray):
                tiled = np.tile(nval, reps) if nval.ndim == 1 else nval.copy()
                setattr(wide_obj, name, tiled)
            elif nval.shape == wval.shape:
                np.copyto(wval, nval)
            elif (
                nval.ndim == 1
                and wval.ndim == 1
                and wval.shape[0] == reps * nval.shape[0]
            ):
                wval[:] = np.tile(nval, reps)
            else:
                raise SimulationError(
                    f"cannot tile {type(narrow_obj).__name__}.{name}: "
                    f"{nval.shape} -> {wval.shape} (x{reps})"
                )
        elif isinstance(nval, list):
            if missing or wval is None or len(wval) == len(nval):
                setattr(wide_obj, name, copy.deepcopy(nval))
            elif len(wval) == reps * len(nval):
                tiled = []
                for _ in range(reps):
                    tiled.extend(copy.deepcopy(nval))
                setattr(wide_obj, name, tiled)
            else:
                raise SimulationError(
                    f"cannot tile {type(narrow_obj).__name__}.{name}: "
                    f"list of {len(nval)} -> {len(wval)} (x{reps})"
                )
        elif nval is None:
            if not missing and wval is not None:
                setattr(wide_obj, name, None)
        elif isinstance(nval, (enum.Enum, *_TILE_SCALARS)):
            if (
                missing
                or isinstance(wval, np.ndarray)
                or (wval is not nval and wval != nval)
            ):
                setattr(wide_obj, name, nval)
        elif type(nval).__module__.partition(".")[0] == "repro":
            if not missing and wval is not None:
                _tile_state(wval, nval, reps, _seen)
        else:
            raise SimulationError(
                f"untileable attribute {type(narrow_obj).__name__}.{name} "
                f"({type(nval).__name__})"
            )


def _prefix_fork_steps(
    wide: CohortSimulation,
    n_schemes: int,
    start_s: float,
    end_s: float,
    dt: float,
    record_every: int,
) -> "int | None":
    """Largest aligned benign-prefix length, or ``None`` if ineligible.

    The fork must land on the common grid of the management period and
    the recording stride (so freeze boundaries, meter rebinds and
    recorded rows all line up with the unsplit run), must not pass the
    earliest attack onset, and must leave at least one wide step. With
    no cells to deduplicate (every cell its own scheme) the split is
    pure overhead, so it is skipped.
    """
    if wide._n_cells <= n_schemes:
        return None
    period_steps = wide._mgmt_interval / dt
    period = int(round(period_steps))
    if period <= 0 or abs(period_steps - period) > 1e-9:
        return None
    align = period * record_every // math.gcd(period, record_every)
    total = max(0, int(round((end_s - start_s) / dt)))
    while start_s + total * dt < end_s - 1e-9:
        total += 1
    while total > 0 and start_s + (total - 1) * dt >= end_s - 1e-9:
        total -= 1
    horizon = min(wide._min_onset_s, wide._min_grid_edge_s, end_s)
    limit = total - 1
    if horizon < end_s:
        onset_steps = int((horizon - start_s) / dt + 1e-9)
        limit = min(limit, onset_steps)
    fork_steps = (limit // align) * align
    return fork_steps if fork_steps > 0 else None


def run_cohort_expanded(
    config: DataCenterConfig,
    trace: UtilizationTrace,
    cells: "Sequence[CohortCell]",
    start_s: float,
    end_s: float,
    dt: float,
    record_every: int = 1,
    management_interval_s: float = 10.0,
    overshoot_tolerance: float = 0.03,
    kernels: str = "numpy",
) -> "list[SimResult]":
    """Run a cohort with its benign prefix deduplicated across siblings.

    Before the earliest attack onset every cell of a scheme is bitwise
    identical, so the pre-onset window runs as a *narrow* cohort of one
    benign cell per scheme. At an aligned fork boundary the narrow state
    is tiled out to the full width (:meth:`CohortSimulation.adopt_prefix`),
    each wide cell's result seeded with a deep copy of its scheme's
    narrow result, and the remaining window runs wide. Ineligible
    inputs (non-integral management period, onset before the first
    aligned boundary, nothing to deduplicate) or a narrow prefix that
    trips a breaker fall back to the plain single-pass run; results are
    identical either way.
    """
    wide = CohortSimulation(
        config, trace, cells, management_interval_s, overshoot_tolerance,
        kernels=kernels,
    )
    scheme_names = sorted({cell.scheme for cell in cells})
    fork_steps = _prefix_fork_steps(
        wide, len(scheme_names), start_s, end_s, dt, record_every
    )
    if fork_steps is None:
        return wide.run_cohort(start_s, end_s, dt, record_every)
    narrow = CohortSimulation(
        config,
        trace,
        [CohortCell(scheme=name, attacker=None) for name in scheme_names],
        management_interval_s,
        overshoot_tolerance,
        kernels=kernels,
    )
    fork_s = start_s + fork_steps * dt
    narrow_results = narrow.run_cohort(start_s, fork_s, dt, record_every)
    if narrow._done.any():
        # The benign prefix itself tripped a breaker; the plain path
        # owns the per-cell fall-out bookkeeping (wide is still fresh).
        return wide.run_cohort(start_s, end_s, dt, record_every)
    wide.adopt_prefix(narrow)
    by_scheme = dict(zip(scheme_names, narrow_results))
    seeds = [
        copy.deepcopy(by_scheme[cells[caller_index].scheme])
        for caller_index in wide._order
    ]
    return wide.run_cohort(
        start_s,
        end_s,
        dt,
        record_every,
        _seed_results=seeds,
        _start_step=fork_steps,
    )
