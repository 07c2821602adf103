"""Defense-scheme machinery shared by the six evaluated schemes (Table III).

Physical model (see DESIGN.md for the derivation):

* Overload and breaker trips happen at the **rack feed**: rack circuits
  are the oversubscribed element (the rack breaker is sized to the
  budgeted rack power plus a small tolerance, not to the sum of server
  nameplates — that is precisely why rack-level shaving/capping exists).
  The cluster PDU breaker guards the aggregate the same way.
* A rack's battery and supercap sit on that rack's bus: their discharge
  offsets *that rack's* utility draw. vDEB's "sharing" is indirect — a
  high-SOC rack discharges locally, freeing cluster budget that the iPDU
  soft limits hand to the needy rack (whose feed can carry up to the
  branch rating).
* Battery and supercap shaving is **automatic** (power electronics see
  the real current instantly); software actions — capping, shedding,
  anomaly handling — see only *metered interval averages*, which is why
  hidden spikes evade them.

Every scheme implements ``dispatch``: given the instantaneous demand and
the latest metered view, move energy and set management masks. The
simulation engine applies the result to the breakers and metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..battery.charger import OfflineCharger, OnlineCharger, make_charger
from ..battery.fleet_kernels import make_fleet
from ..battery.lead_acid import _RECONNECT_HYSTERESIS
from ..battery.pack import check_step_args
from ..config import DataCenterConfig
from ..core.udeb import VectorUdebShaver
from ..errors import ConfigError
from ..kernels import get_kernels, resolve_kernels
from ..power.capping import CapController
from ..power.topology import CompiledTopology
from ..workload.cluster import ClusterModel
from .telemetry import TelemetryView

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..sim.events import EventBus

# Placeholder arrays for kernel parameters a given call never reads
# (e.g. the offline-charger mask when the charger is online). The fused
# kernels index these only inside branches their mode flags disable.
_UNUSED_F64 = np.zeros(1)
_UNUSED_I64 = np.zeros(1, dtype=np.int64)
_UNUSED_U8 = np.zeros(1, dtype=np.uint8)


@dataclass(frozen=True)
class StepState:
    """What a scheme may observe at one simulation tick.

    Attributes:
        time_s: Current simulation time.
        dt: Tick length.
        rack_demand_w: Instantaneous electrical demand ``p_i`` per rack
            (with the scheme's previous capping/shedding already applied).
        metered_rack_avg_w: Latest management-meter average per rack —
            what software loops are allowed to react to. Under a
            telemetry fault this is the *held* last-known-good view.
        metered_server_util: Latest metered per-server utilisation — the
            shedder's selection input.
        telemetry_age_s: Age of the oldest held telemetry channel; zero
            on the healthy path.
        telemetry_stale: True once held telemetry outlived the TTL —
            schemes must fail safe instead of trusting the numbers.
        grid_feed_factor: Per-rack fraction of the budgeted utility feed
            the grid can currently serve (sags/brownouts), or ``None``
            on the healthy path. Racks untouched by a targeted sag hold
            exactly ``1.0``.
        grid_freg_w: Commanded per-rack frequency-regulation discharge
            power for this tick, or ``None`` when no duty is in its on
            phase.
        grid_freg_floor_soc: Per-rack contracted SoC floor below which
            the regulation duty stops discharging (paired with
            ``grid_freg_w``).
    """

    time_s: float
    dt: float
    rack_demand_w: np.ndarray
    metered_rack_avg_w: np.ndarray
    metered_server_util: np.ndarray
    telemetry_age_s: float = 0.0
    telemetry_stale: bool = False
    grid_feed_factor: "np.ndarray | None" = None
    grid_freg_w: "np.ndarray | None" = None
    grid_freg_floor_soc: "np.ndarray | None" = None


@dataclass(frozen=True)
class Dispatch:
    """A scheme's decision for one tick.

    Attributes:
        battery_w: Per-rack battery discharge actually delivered.
        charge_w: Per-rack battery charging draw (bus side).
        udeb_w: Per-rack supercap discharge actually delivered.
        udeb_charge_w: Per-rack supercap charging draw.
        capped_racks: Racks whose servers run DVFS-capped *next* tick.
        asleep_servers: Servers held asleep next tick.
        soft_limits_w: Per-rack soft limits after this tick's management.
    """

    battery_w: np.ndarray
    charge_w: np.ndarray
    udeb_w: np.ndarray
    udeb_charge_w: np.ndarray
    capped_racks: np.ndarray
    asleep_servers: np.ndarray
    soft_limits_w: np.ndarray

    def utility_w(self, rack_demand_w: np.ndarray) -> np.ndarray:
        """Per-rack power drawn from the utility feed this tick."""
        draw = (
            np.asarray(rack_demand_w, dtype=float)
            - self.battery_w
            - self.udeb_w
            + self.charge_w
            + self.udeb_charge_w
        )
        return np.maximum(draw, 0.0)


@dataclass
class SchemeContext:
    """Everything a scheme needs at construction time.

    Attributes:
        config: Full data-center configuration.
        cluster: Workload-to-power model.
        initial_soft_limits_w: The provisioned per-rack budgets; schemes
            without iPDU reassignment keep these forever.
        seed: Determinism seed.
        bus: Event bus for the scheme's typed occurrences (capping flips,
            policy escalations, shedding, vDEB reassignments); a private
            bus is created when the orchestration layer supplies none.
        backend: Energy-store implementation: ``"scalar"`` (per-pack
            objects, the differential-test oracle) or ``"vectorized"``
            (array kernels). Defaults to scalar so directly-constructed
            schemes exercise the reference physics; the simulation layer
            passes vectorized through.
        telemetry_ttl_s: Staleness TTL for the scheme's
            :class:`~repro.defense.telemetry.TelemetryView` — how long
            held meter readings stay trusted during a telemetry fault.
        topology: Compiled multi-PDU hierarchy, when the simulation layer
            provides one. Schemes with per-PDU pools (vDEB, PAD) scope
            their shave requirement and soft-limit reassignment to each
            PDU's rack block; ``None`` (or a flat hierarchy) keeps the
            paper's single cluster-wide pool.
        kernels: Step-kernel tier: ``"numpy"`` (vector expressions) or
            ``"compiled"`` (fused numba/C loops over the same arrays).
            Orthogonal to ``backend`` — the compiled tier accelerates
            the vectorized stores and is bit-identical to numpy by
            construction; it silently degrades to numpy when no
            provider is installed (one :class:`~repro.kernels.
            KernelFallbackWarning` per process).
    """

    config: DataCenterConfig
    cluster: ClusterModel
    initial_soft_limits_w: np.ndarray
    branch_rating_w: "np.ndarray | None" = None
    seed: "int | None" = None
    initial_battery_soc: "float | list[float]" = field(default=1.0)
    bus: "EventBus | None" = None
    backend: str = "scalar"
    telemetry_ttl_s: float = 30.0
    topology: "CompiledTopology | None" = None
    kernels: str = "numpy"

    def ratings(self) -> np.ndarray:
        """Per-rack branch breaker ratings (defaults to the soft limits)."""
        if self.branch_rating_w is None:
            return np.asarray(self.initial_soft_limits_w, dtype=float)
        return np.asarray(self.branch_rating_w, dtype=float)


class DefenseScheme:
    """Base class: owns the battery fleet, chargers and cap controllers.

    Subclasses toggle behaviour through the hooks; the heavy lifting
    (fleet stepping, charging, capping bookkeeping) is shared so every
    scheme sees identical physics.
    """

    #: Human-readable scheme name (Table III row).
    name: str = "base"
    #: Discharge batteries to shave peaks (False only for Conv).
    uses_peak_shaving: bool = True
    #: Reassign discharge duty and soft limits cluster-wide (vDEB).
    uses_vdeb: bool = False
    #: Rack-level supercap spike shaving (uDEB).
    uses_udeb: bool = False
    #: DVFS power capping on over-budget racks (PSPC).
    uses_capping: bool = False
    #: Level-3 load shedding (PAD).
    uses_shedding: bool = False
    #: Whether the cohort may freeze this scheme at a quiescent fixed
    #: point. A scheme qualifies when its quiescent dynamics are exactly
    #: periodic at the management cadence, so a repeated fingerprint
    #: proves the period will repeat verbatim. Schemes with
    #: slowly-drifting internal state (vDEB's equalisation) opt out.
    ff_eligible: bool = True
    #: True when ``after_battery`` is the shared uDEB shave/recharge body
    #: (UdebScheme, PadScheme set this), letting the compiled tier fuse
    #: the supercap stage into the dispatch kernel. Schemes with a
    #: different ``after_battery`` leave it False and run that hook in
    #: Python on the kernel-computed residual.
    fused_after_battery: bool = False

    def __init__(self, ctx: SchemeContext) -> None:
        # Deferred import: repro.sim imports the defense layer.
        from ..sim.events import EventBus

        self.ctx = ctx
        self.bus = ctx.bus if ctx.bus is not None else EventBus()
        cfg = ctx.config
        racks = ctx.cluster.racks
        self.fleet = make_fleet(
            ctx.backend,
            cfg.cluster.rack.battery,
            racks,
            initial_soc=ctx.initial_battery_soc,
        )
        self.charger = make_charger(cfg.charging, cfg.cluster.rack.battery)
        # Kernel tier (resolved: "compiled" degrades to "numpy" with a
        # warning when no provider is installed).
        self.kernels = resolve_kernels(ctx.kernels)
        # dt -> precomputed scalar-coefficient tuple for the fused
        # kernels (dt is constant within a run, so this hits every tick).
        self._fused_coeffs: "tuple[float, tuple] | None" = None
        # How the fused kernel reproduces battery_discharge: 0 = zeros
        # (no peak shaving), 1 = local excess over the soft limits, 2 =
        # overridden hook, evaluated in Python and passed through.
        if type(self).battery_discharge is DefenseScheme.battery_discharge:
            self._fused_request_mode = 1 if self.uses_peak_shaving else 0
        else:
            self._fused_request_mode = 2
        # Charger flavour the kernel understands (-1 = unknown, skip).
        if type(self.charger) is OnlineCharger:
            self._fused_charger_mode = 0
        elif type(self.charger) is OfflineCharger:
            self._fused_charger_mode = 1
        else:
            self._fused_charger_mode = -1
        self.soft_limits_w = np.asarray(
            ctx.initial_soft_limits_w, dtype=float
        ).copy()
        if self.soft_limits_w.shape != (racks,):
            raise ConfigError("need one initial soft limit per rack")
        self.initial_soft_limits_w = self.soft_limits_w.copy()
        self.cap_controllers = [
            CapController(cfg.capping) for _ in range(racks)
        ]
        self.capped_racks = np.zeros(racks, dtype=bool)
        self.asleep_servers = np.zeros(ctx.cluster.servers, dtype=bool)
        # True while any cap controller is pending or active — lets the
        # management loop skip the per-rack walk on quiet ticks.
        self._cap_busy = False
        # Battery-reserve partition (grid ride-through vs defense
        # budget); None keeps the paper's undivided battery.
        self.reserve = cfg.reserve
        # Rising-edge state for the typed grid transitions the scheme
        # publishes (RideThroughEngaged / ReserveBreached).
        self._ride_engaged = np.zeros(racks, dtype=bool)
        self._reserve_breached = np.zeros(racks, dtype=bool)
        # False only while both edge-state arrays are known all-false,
        # so steps without a grid input skip clearing them.
        self._grid_edges_live = False
        # The sensor boundary: every metered/sensed quantity the software
        # plane consumes flows through here, so telemetry faults have one
        # choke point and staleness one definition.
        self.telemetry = TelemetryView(
            racks,
            ctx.cluster.servers,
            ctx.telemetry_ttl_s,
            initial_rack_avg_w=self.soft_limits_w,
            initial_server_util=np.zeros(ctx.cluster.servers),
        )

    # ------------------------------------------------------------------ #
    # Hooks                                                               #
    # ------------------------------------------------------------------ #

    def battery_discharge(self, state: StepState) -> np.ndarray:
        """Per-rack battery discharge *request* for this tick.

        Default: local peak shaving — each rack covers its own excess over
        its soft limit, alone. Conv overrides to zero; vDEB overrides with
        Algorithm 1.
        """
        if not self.uses_peak_shaving:
            return np.zeros(self.ctx.cluster.racks)
        return np.maximum(0.0, state.rack_demand_w - self.soft_limits_w)

    def after_battery(self, state: StepState,
                      residual_w: "np.ndarray | None"
                      ) -> "tuple[np.ndarray, np.ndarray]":
        """uDEB stage: shave ``residual_w`` (excess the batteries missed).

        Returns ``(udeb_discharge_w, udeb_charge_w)``; the base class has
        no supercaps and returns zeros without reading ``residual_w``
        (``dispatch`` passes ``None`` to this hook instead of computing
        the residual).
        """
        zeros = np.zeros(self.ctx.cluster.racks)
        return zeros, zeros

    def management(self, state: StepState) -> None:
        """Software-plane updates (capping, shedding, policy).

        Runs on metered data only. The base class updates cap controllers
        when capping is enabled.
        """
        if self.uses_capping:
            if state.telemetry_stale:
                # Frozen meter averages can neither justify new capping
                # nor safely release it — hold state until telemetry
                # returns (fail safe: never act on readings past TTL).
                return
            deliverable = self.fleet.max_discharge_vector(state.dt)
            if self.reserve is not None:
                # Under a reserve partition, capping triggers once the
                # *defense slice* can no longer cover the excess — the
                # ride-through floor is off-limits to peak shaving, so
                # DVFS steps in earlier instead of silently eating it.
                deliverable = np.minimum(
                    deliverable, self.defense_cap_w(state.dt)
                )
            need = state.metered_rack_avg_w - self.soft_limits_w
            # DVFS is the fallback once the DEB runs out (paper Fig. 6:
            # "Once the peak-shaving DEB runs out, data center servers
            # have to use performance scaling to cap power demand").
            over = (need > 0.0) & (deliverable < need)
            # Stepping an idle controller with over=False is a no-op, so
            # the whole loop can be skipped while every rack is quiet.
            if not self._cap_busy and not over.any():
                return
            over_list = over.tolist()
            was_capped = self.capped_racks.tolist()
            busy = False
            for rack, controller in enumerate(self.cap_controllers):
                capped = controller.step(over_list[rack], state.dt)
                busy = busy or capped or controller.is_pending
                if capped != was_capped[rack]:
                    # Imported here, where an event is published: the
                    # sim package imports this module.
                    from ..sim.events import CappingChanged

                    self.bus.publish(CappingChanged(
                        time_s=state.time_s, rack_id=rack, capped=capped,
                    ))
                    self.capped_racks[rack] = capped
            self._cap_busy = busy

    # ------------------------------------------------------------------ #
    # The shared dispatch pipeline                                        #
    # ------------------------------------------------------------------ #

    def defense_cap_w(self, dt: float) -> np.ndarray:
        """Per-rack power the defense slice can sustain for one tick.

        Only meaningful with a :class:`~repro.grid.reserve.ReservePolicy`
        installed: the stored energy above the ride-through floor,
        spread over ``dt``. Zero once a pack sinks to the floor — the
        reserve is breached and the scheme must degrade instead of
        drawing it down further.
        """
        assert self.reserve is not None
        return (
            self.fleet.charge_above_j(self.reserve.ride_through_floor_soc)
            / dt
        )

    def dispatch(self, state: StepState) -> Dispatch:
        """Run one tick: management, battery stage, uDEB stage, charging.

        Grid-aware extensions (each a bitwise no-op when its input is
        absent):

        * a :class:`~repro.grid.reserve.ReservePolicy` clamps the
          *defense* discharge to the slice above the ride-through
          floor;
        * an active sag/brownout lowers the effective utility ceiling
          to ``feed_factor * soft_limits`` — the deficit rides through
          on battery with the **full** deliverable power (ride-through
          may spend the reserve floor; that is what it is for);
        * an on-phase frequency-regulation duty discharges its
          commanded power behind the meter, gated on the contracted
          SoC floor.
        """
        if self.kernels == "compiled":
            fused = self._dispatch_compiled(state)
            if fused is not None:
                return fused
        self.management(state)
        request = np.minimum(
            self.battery_discharge(state), state.rack_demand_w
        )
        deliverable = self.fleet.max_discharge_vector(state.dt)
        if self.reserve is None:
            defense_cap_w = None
            request = np.minimum(request, deliverable)
        else:
            defense_cap_w = self.defense_cap_w(state.dt)
            request = np.minimum(
                request, np.minimum(deliverable, defense_cap_w)
            )
        ff = state.grid_feed_factor
        if ff is None:
            limits = self.soft_limits_w
            ride = None
        else:
            limits = ff * self.soft_limits_w
            # Only sagged racks (ff < 1) ride through: demand the
            # derated feed cannot carry transfers to battery,
            # bypassing the reserve clamp.
            ride_need = np.where(
                ff < 1.0,
                np.maximum(0.0, state.rack_demand_w - limits),
                0.0,
            )
            ride = np.minimum(ride_need, deliverable)
            request = np.maximum(request, ride)
        if state.grid_freg_w is not None:
            duty = np.where(
                self.fleet.soc_vector() > state.grid_freg_floor_soc,
                state.grid_freg_w,
                0.0,
            )
            # Behind-the-meter: the duty offsets local draw, so it can
            # never exceed the rack's own demand (no export path).
            duty = np.minimum(
                duty, np.minimum(state.rack_demand_w, deliverable)
            )
            request = np.maximum(request, duty)
        self._publish_grid_transitions(state, ride, defense_cap_w)

        # Charging: only racks that are not discharging, from headroom
        # under the (possibly sagged) soft limit.
        headroom = limits - (state.rack_demand_w - request)
        active = (request <= 0.0) & (headroom > 0.0)
        charge = self.charger.fleet_charge_power(
            self.fleet, headroom, active, state.dt
        )
        delivered = self.fleet.step(request, charge, state.dt, state.time_s)

        if type(self).after_battery is DefenseScheme.after_battery:
            # The base hook returns zeros without reading the residual.
            residual = None
        else:
            local_need = np.maximum(0.0, state.rack_demand_w - limits)
            residual = np.maximum(0.0, local_need - delivered)
        udeb_w, udeb_charge_w = self.after_battery(state, residual)

        return Dispatch(
            battery_w=delivered,
            charge_w=charge,
            udeb_w=udeb_w,
            udeb_charge_w=udeb_charge_w,
            capped_racks=self.capped_racks.copy(),
            asleep_servers=self.asleep_servers.copy(),
            # Soft limits are never mutated in place (reassignment swaps
            # in a fresh array), so the live array is safe to hand out —
            # and its identity lets the protection stage skip re-applying
            # unchanged breaker ratings.
            soft_limits_w=self.soft_limits_w,
        )

    def _fused_scalar_args(self, dt: float) -> tuple:
        """The scalar-coefficient block both fused kernels consume.

        Every derived scalar (the ``exp`` relaxation factor, the KiBaM
        shape coefficients, the LVD thresholds) is evaluated here with
        the numpy path's *exact* expressions, so the compiled loops do
        no transcendental or re-associated arithmetic of their own —
        the cornerstone of the bit-identity argument (see
        ``repro.kernels.loops``).
        """
        cached = self._fused_coeffs
        if cached is not None and cached[0] == dt:
            return cached[1]
        check_step_args(0.0, dt)
        cells = self.fleet.cells
        cfg = self.fleet._config
        k, c = cells._k, cells._c
        e = math.exp(-k * dt)
        args = (
            e, 1.0 - e, 1.0 - c, k, c,
            (k * dt - 1.0 + e) / k,
            (1.0 - e) / k + c * (k * dt - 1.0 + e) / k,
            dt,
            cfg.max_discharge_w, cfg.max_charge_w, cfg.charge_efficiency,
            cfg.lvd_soc, cfg.lvd_soc + _RECONNECT_HYSTERESIS,
        )
        self._fused_coeffs = (dt, args)
        return args

    def _fused_udeb_mode(self) -> "tuple[int, object]":
        """Classify the uDEB stage for the kernel.

        Returns ``(mode, shaver_state)``: 0 = no supercaps (the base
        ``after_battery``), 1 = fuse the shared shave/recharge body over
        the vectorized supercap state, 2 = run the Python hook on the
        kernel's residual (overridden hook, scalar shaver, or stuck-open
        FETs this tick).
        """
        if type(self).after_battery is DefenseScheme.after_battery:
            return 0, None
        if self.fused_after_battery:
            shaver = getattr(self, "shaver", None)
            if (
                type(shaver) is VectorUdebShaver
                and not shaver._any_stuck
            ):
                return 1, shaver._state
        return 2, None

    def _dispatch_compiled(self, state: StepState) -> "Dispatch | None":
        """One tick through the fused compiled kernel, when eligible.

        Returns ``None`` for anything the kernel does not model —
        reserve partitions, grid disturbances, scalar/logging fleets,
        unknown chargers — and ``dispatch`` falls through to the stock
        numpy pipeline. Eligibility is deliberately conservative: the
        kernel must be a bitwise drop-in, never an approximation.

        State handling mirrors the numpy path's semantics exactly:
        arrays numpy mutates in place are handed to the kernel in
        place; arrays numpy *rebinds* (``_y1``/``_y2``, the LVD mask,
        the offline-charger mask, supercap charge) go in as fresh
        copies and are swapped in afterwards, so snapshots and aliases
        taken before the tick never observe a half-step.
        """
        ns = get_kernels()
        fleet = self.fleet
        if (
            ns is None
            or self.reserve is not None
            or state.grid_feed_factor is not None
            or state.grid_freg_w is not None
            or not getattr(fleet, "vectorized", False)
            or fleet._keep_log
            or self._fused_charger_mode < 0
        ):
            return None
        self.management(state)
        udeb_mode, sc_state = self._fused_udeb_mode()
        n = len(fleet)
        dt = state.dt
        demand = np.ascontiguousarray(state.rack_demand_w, dtype=float)
        mode = self._fused_request_mode
        if mode == 2:
            request_raw = np.ascontiguousarray(
                self.battery_discharge(state), dtype=float
            )
        else:
            request_raw = _UNUSED_F64
        # Read the soft limits only now: an overridden battery_discharge
        # (vDEB's Algorithm 1) reassigns them as a side effect, and the
        # stock pipeline consumes the post-reassignment array.
        limits = np.ascontiguousarray(self.soft_limits_w, dtype=float)
        scalars = self._fused_scalar_args(dt)
        cells = fleet._cells
        y1 = cells._y1.copy()
        y2 = cells._y2.copy()
        disc = fleet._disconnected.copy().view(np.uint8)
        if self._fused_charger_mode == 1:
            off = getattr(fleet, OfflineCharger.STATE_ATTR, None)
            off = np.zeros(n, dtype=bool) if off is None else off.copy()
            off_u8 = off.view(np.uint8)
            recharge_soc = self.charger._recharge_soc
            full_soc = self.charger._full_soc
        else:
            off = None
            off_u8 = _UNUSED_U8
            recharge_soc = 0.0
            full_soc = 0.0
        if udeb_mode == 1:
            sc_cfg = sc_state._config
            sc_charge = sc_state._charge_j.copy()
            sc_flags = np.array([1 if sc_state._full else 0], np.int64)
            sc_args = (
                sc_charge, sc_state._shave_events, sc_state._shaved_j,
                sc_flags, sc_state._capacity_j, sc_cfg.efficiency,
                sc_cfg.max_power_w, sc_cfg.max_charge_w,
                sc_cfg.efficiency * dt,
            )
        else:
            sc_charge = None
            sc_flags = None
            sc_args = (
                _UNUSED_F64, _UNUSED_I64, _UNUSED_F64, _UNUSED_I64,
                0.0, 1.0, 0.0, 0.0, 1.0,
            )
        out_charge = np.empty(n)
        out_delivered = np.empty(n)
        out_udeb = np.empty(n)
        out_udeb_charge = np.empty(n)
        out_residual = np.empty(n)
        ns.fused_dispatch(
            n, demand, limits, mode, request_raw,
            y1, y2, cells._capacity_j, cells._cap_available,
            cells._cap_bound, disc,
            fleet._discharged_j, fleet._charged_j,
            fleet._deep_discharge_events,
            *scalars,
            self._fused_charger_mode, off_u8, recharge_soc, full_soc,
            1 if udeb_mode == 1 else 0, *sc_args,
            out_charge, out_delivered, out_udeb, out_udeb_charge,
            out_residual,
        )
        cells._y1 = y1
        cells._y2 = y2
        cells._version += 1
        fleet._disconnected = disc.view(bool)
        if off is not None:
            setattr(fleet, OfflineCharger.STATE_ATTR, off)
        if udeb_mode == 1:
            sc_state._charge_j = sc_charge
            sc_state._full = bool(sc_flags[0])
        # _publish_grid_transitions with ride and defense cap both None
        # reduces to clearing any leftover rising-edge state.
        self._clear_grid_edges()
        if udeb_mode == 2:
            udeb_w, udeb_charge_w = self.after_battery(state, out_residual)
        else:
            udeb_w, udeb_charge_w = out_udeb, out_udeb_charge
        return Dispatch(
            battery_w=out_delivered,
            charge_w=out_charge,
            udeb_w=udeb_w,
            udeb_charge_w=udeb_charge_w,
            capped_racks=self.capped_racks.copy(),
            asleep_servers=self.asleep_servers.copy(),
            soft_limits_w=self.soft_limits_w,
        )

    def _publish_grid_transitions(
        self,
        state: StepState,
        ride: "np.ndarray | None",
        defense_cap_w: "np.ndarray | None",
    ) -> None:
        """Publish rising-edge grid transitions (ride-through, breach).

        Only edges are published — a rack riding through a 10-minute sag
        produces one :class:`~repro.sim.events.RideThroughEngaged`, not
        1200. State arrays reset when the condition clears so the next
        disturbance publishes fresh edges.
        """
        if ride is None and defense_cap_w is None:
            self._clear_grid_edges()
            return
        self._grid_edges_live = True
        if ride is not None:
            engaged = ride > 0.0
            rising = engaged & ~self._ride_engaged
            if rising.any():
                from ..sim.events import RideThroughEngaged

                self.bus.publish(RideThroughEngaged(
                    time_s=state.time_s,
                    event="ride-through",
                    racks=tuple(int(r) for r in np.nonzero(rising)[0]),
                ))
            self._ride_engaged = engaged
        elif self._ride_engaged.any():
            self._ride_engaged[:] = False
        if defense_cap_w is not None:
            # A breach only means something on racks the grid is
            # actively stressing (sagged feed or commanded regulation
            # duty) — quiescent low SoC (e.g. right after an attack) is
            # the schemes' normal recharge path, and a rack untouched by
            # a targeted sag is not riding anything out.
            stressed = np.zeros(len(defense_cap_w), dtype=bool)
            if state.grid_feed_factor is not None:
                stressed |= state.grid_feed_factor < 1.0
            if state.grid_freg_w is not None:
                stressed |= state.grid_freg_w > 0.0
            breached = (defense_cap_w <= 0.0) & stressed
            rising = breached & ~self._reserve_breached
            if rising.any():
                from ..sim.events import ReserveBreached

                self.bus.publish(ReserveBreached(
                    time_s=state.time_s,
                    event="reserve-breached",
                    racks=tuple(int(r) for r in np.nonzero(rising)[0]),
                ))
            self._reserve_breached = breached
        elif self._reserve_breached.any():
            self._reserve_breached[:] = False

    def _clear_grid_edges(self) -> None:
        """Reset the rising-edge state once no grid input is present."""
        if not self._grid_edges_live:
            return
        if self._ride_engaged.any():
            self._ride_engaged[:] = False
        if self._reserve_breached.any():
            self._reserve_breached[:] = False
        self._grid_edges_live = False

    # ------------------------------------------------------------------ #
    # Quiescence fingerprint (cohort freeze)                              #
    # ------------------------------------------------------------------ #

    def ff_state(self, now_s: float) -> dict:
        """Evolving control/physics state for the cohort freeze fingerprint.

        Subclasses extend the dict with their own fields; anything that
        influences future dispatches must appear here (or be provably
        derived from fields that do), otherwise a fingerprint match could
        lie and break bit-identity.
        """
        return {
            "fleet": self.fleet.ff_state(),
            "cap_controllers": [c.ff_state() for c in self.cap_controllers],
            "capped_racks": self.capped_racks,
            "asleep_servers": self.asleep_servers,
            "cap_busy": self._cap_busy,
            "soft_limits_w": self.soft_limits_w,
            "telemetry": self.telemetry.ff_state(now_s),
            "ride_engaged": self._ride_engaged,
            "reserve_breached": self._reserve_breached,
        }

    def reset(self) -> None:
        """Restore construction-time state."""
        self.fleet.reset()
        self.soft_limits_w = self.initial_soft_limits_w.copy()
        for controller in self.cap_controllers:
            controller.reset()
        self.capped_racks[:] = False
        self.asleep_servers[:] = False
        self._cap_busy = False
        self._ride_engaged[:] = False
        self._reserve_breached[:] = False
        self._grid_edges_live = False
        self.telemetry.reset()
