"""PAD — the paper's full design: vDEB + uDEB + policy + shedding.

The complete power-attack defense stack:

* the **vDEB** controller shares battery duty SOC-proportionally and
  reassigns iPDU soft limits (Level-1 visible-peak handling);
* the **uDEB** supercaps absorb whatever slips past the batteries, with
  zero software latency (Level-2 hidden-spike handling);
* the **hierarchical policy** (Fig. 9) tracks the health of both backup
  layers plus the visible-peak signal;
* **Level-3 load shedding** sleeps up to ~3 % of servers — chosen by
  metered utilisation — when both layers are exhausted and demand still
  exceeds the budget.

PAD deliberately has *no DVFS capping*: the paper credits it with "better
performance guarantee" precisely because extended battery autonomy makes
capping unnecessary.
"""

from __future__ import annotations

import numpy as np

from ..core.policy import HierarchicalPolicy, PolicyInputs, SecurityLevel
from ..core.detection import VisiblePeakDetector
from ..core.shedding import LoadShedder
from ..core.udeb import make_shaver
from ..sim.events import PolicyEscalation, SheddingAction
from .base import SchemeContext, StepState
from .vdeb_only import VdebScheme


class PadScheme(VdebScheme):
    """The full PAD patch (paper §4)."""

    name = "PAD"
    uses_vdeb = True
    uses_udeb = True
    uses_shedding = True
    # after_battery below is the shared uDEB shave/recharge body the
    # compiled tier can fuse into the dispatch kernel.
    fused_after_battery = True
    # PAD keeps the deployment's existing DVFS capping as the very last
    # resort. The design goal is that it almost never fires — the vDEB
    # pool, the uDEB and the shedder act first — which is exactly why
    # PAD "can greatly reduce unnecessary power capping activities that
    # are seen in other baselines" (paper §6.3).
    uses_capping = True

    def __init__(self, ctx: SchemeContext, strict_policy: bool = True) -> None:
        super().__init__(ctx)
        cfg = ctx.config
        self.shaver = make_shaver(ctx.backend, cfg.supercap, ctx.cluster.racks)
        self.policy = HierarchicalPolicy(strict=strict_policy)
        self.vp_detector = VisiblePeakDetector(
            margin=cfg.policy.visible_peak_margin
        )
        server = cfg.cluster.rack.server
        # Sleeping a server recovers its dynamic power plus the idle power
        # it no longer burns (sleep state parks well below active idle).
        saving_w = server.peak_w - 0.1 * server.idle_w
        self.shedder = LoadShedder(
            cfg.policy, ctx.cluster.servers, per_server_saving_w=saving_w
        )
        racks = ctx.cluster.racks
        # Level-2 anomaly prevention: the uDEB's ORing events are a
        # hardware fine-grained spike sensor. Racks whose uDEB keeps
        # firing are "spike suspects"; PAD pins their soft limit at the
        # observed spike ceiling so hidden spikes ride the (budgeted)
        # utility feed instead of bleeding the backup stores.
        self._recent_peak_w = np.zeros(racks)
        self._suspect_until_s = np.full(racks, -np.inf)
        self._last_shaves = np.zeros(racks, dtype=np.int64)
        self._peak_decay: "tuple[float, float] | None" = None

    @property
    def level(self) -> SecurityLevel:
        """Current policy level (valid after the first dispatch)."""
        return self.policy.level

    #: Battery SOC below which a rack counts as vulnerable for the
    #: rack-level migration/shedding trigger.
    VULNERABLE_SOC = 0.15
    #: How long a rack stays a spike suspect after its uDEB last fired.
    SUSPECT_HOLD_S = 600.0
    #: Decay constant of the tracked fine-grained demand peak.
    PEAK_DECAY_TAU_S = 300.0
    #: Extra headroom above the tracked peak when pinning a limit.
    PIN_MARGIN_W = 100.0

    def _vdeb_pool_available(self) -> bool:
        """Whether the vDEB pool still holds usable *defense* energy.

        Under a :class:`~repro.grid.reserve.ReservePolicy` only the
        slice above the ride-through floor counts — a fleet sitting
        exactly at the floor is empty from the policy's point of view,
        so PAD escalates instead of pretending Level 1 still works.
        """
        pool = self.telemetry.pool_soc(self.fleet)
        if self.reserve is not None:
            floor = self.reserve.ride_through_floor_soc
            pool = max(0.0, (pool - floor) / (1.0 - floor))
        return pool > self.ctx.config.policy.vdeb_empty_soc

    def soft_limit_floors(self, state: StepState) -> np.ndarray:
        """Pin spike-suspect racks at their observed fine-grained peak."""
        floors = super().soft_limit_floors(state)
        suspect = state.time_s < self._suspect_until_s
        ceiling = float(np.max(self._branch_rating_w))
        pinned = np.minimum(
            self._recent_peak_w + self.PIN_MARGIN_W, ceiling - 1.0
        )
        return np.where(suspect, np.maximum(floors, pinned), floors)

    def _track_spikes(self, state: StepState) -> None:
        """Update the uDEB-event spike sensor and peak tracker."""
        if self._peak_decay is None or self._peak_decay[0] != state.dt:
            self._peak_decay = (
                state.dt, float(np.exp(-state.dt / self.PEAK_DECAY_TAU_S))
            )
        self._recent_peak_w = np.maximum(
            self._recent_peak_w * self._peak_decay[1], state.rack_demand_w
        )
        shaves = self.shaver.shave_events_vector()
        fired = shaves > self._last_shaves
        if fired.any():
            self._suspect_until_s[fired] = state.time_s + self.SUSPECT_HOLD_S
            self._last_shaves = shaves

    def management(self, state: StepState) -> None:
        """Policy update and Level-3 shedding, all on metered data."""
        super().management(state)  # last-resort DVFS capping
        self._track_spikes(state)  # hardware sensors — live under faults
        cfg = self.ctx.config
        if state.telemetry_stale:
            # Fail-safe posture (paper Fig. 9): with the metered view
            # past its TTL, assume the worst the meters could be hiding —
            # treat the uDEB layer as unavailable so the policy escalates
            # to Level 2 (Level 3 once the sensed pool empties too), and
            # hold the shed set: selection keyed on frozen utilisation
            # would sleep the wrong servers. The hardware paths (battery,
            # supercap, breakers) below keep acting on real current.
            inputs = PolicyInputs(
                vdeb_available=self._vdeb_pool_available(),
                udeb_available=False,
                visible_peak=False,
            )
            before = self.policy.peek()
            level = self.policy.update(inputs)
            if before is not None and level is not before:
                self.bus.publish(PolicyEscalation(
                    time_s=state.time_s, from_level=before, to_level=level,
                ))
            return
        vp = self.vp_detector.evaluate(
            state.metered_rack_avg_w, self.soft_limits_w
        )
        inputs = PolicyInputs(
            vdeb_available=self._vdeb_pool_available(),
            udeb_available=self.shaver.min_soc > cfg.policy.udeb_empty_soc,
            visible_peak=vp.any_peak,
        )
        before = self.policy.peek()
        level = self.policy.update(inputs)
        if before is not None and level is not before:
            self.bus.publish(PolicyEscalation(
                time_s=state.time_s, from_level=before, to_level=level,
            ))
        metered_total = float(state.metered_rack_avg_w.sum())
        required = 0.0
        # "PAD temporarily puts some of the low-priority racks into
        # deep-sleep mode only in extreme cases when cluster-wide power
        # peaks appear": a metered cluster-wide excess is shed directly,
        # sparing the vDEB pool; Level 3 repeats the demand when both
        # backup layers are gone.
        cluster_excess = metered_total - cfg.cluster.pdu_budget_w
        if cluster_excess > 0.0 or level is SecurityLevel.EMERGENCY:
            required += max(cluster_excess, 0.0)
        # "Load migration from vulnerable racks to dependable racks": a
        # rack that is held over its budget while its battery can no
        # longer cover the excess (deep discharge, LVD, or an exhausted
        # KiBaM available well) is a local emergency — relieve it by
        # shedding its hottest metered load (during a visible-peak attack
        # that is the attacker; hidden spikes do not move metered
        # utilisation and are the uDEB's job instead).
        rack_over = state.metered_rack_avg_w - self.soft_limits_w
        over_budget = rack_over > 0.0
        if over_budget.any():
            soc = self.telemetry.battery_soc(self.fleet)
            deliverable = self.fleet.max_discharge_vector(state.dt)
            weak = (soc < self.VULNERABLE_SOC) | (deliverable < rack_over)
            vulnerable = weak & over_budget
            required += float(rack_over[vulnerable].sum())
        # Graceful degradation mid-sag: a sagged rack whose battery has
        # drained to the ride-through floor can no longer bridge the gap
        # between demand and the derated feed — shed that gap instead of
        # letting the rack brown out against a derated breaker. The
        # drained racks' own servers are marked preferred: relief
        # anywhere else leaves their derated breakers overloaded.
        prefer = None
        if self.reserve is not None and state.grid_feed_factor is not None:
            ff = state.grid_feed_factor
            sag_over = state.metered_rack_avg_w - ff * self.soft_limits_w
            drained = (
                (sag_over > 0.0)
                & (ff < 1.0)
                & (
                    self.telemetry.battery_soc(self.fleet)
                    <= self.reserve.ride_through_floor_soc
                )
            )
            if drained.any():
                required += float(sag_over[drained].sum())
                per_rack = self.ctx.cluster.config.rack.servers
                prefer = np.repeat(drained, per_rack)
        if required <= 0.0 and not self.shedder.any_asleep:
            # Nothing to shed, nothing to wake: ``update`` would return
            # the all-false mask ``asleep_servers`` already holds.
            return
        decision = self.shedder.update(
            state.time_s, state.metered_server_util, required,
            prefer=prefer,
        )
        if decision.changed:
            self.bus.publish(SheddingAction(
                time_s=state.time_s,
                shed=decision.newly_shed,
                woken=decision.newly_released,
            ))
        self.asleep_servers = decision.asleep

    def after_battery(self, state: StepState, residual_w: np.ndarray
                      ) -> "tuple[np.ndarray, np.ndarray]":
        """uDEB stage, identical physics to the uDEB-only scheme."""
        result = self.shaver.shave(residual_w, state.dt)
        headroom = np.where(
            residual_w <= 0.0,
            np.maximum(0.0, self.soft_limits_w - state.rack_demand_w),
            0.0,
        )
        charge = self.shaver.recharge(headroom, state.dt)
        return result.shaved_w, charge

    def ff_state(self, now_s: float) -> dict:
        state = super().ff_state(now_s)
        state["shaver"] = self.shaver.ff_state()
        state["policy"] = self.policy.ff_state()
        state["shedder"] = self.shedder.ff_state(now_s)
        state["recent_peak_w"] = self._recent_peak_w
        state["suspect_for_s"] = self._suspect_until_s - now_s
        state["last_shaves"] = self._last_shaves
        return state

    def reset(self) -> None:
        super().reset()
        self.shaver.reset()
        self.policy.reset()
        self.shedder.reset()
        self.asleep_servers[:] = False
        self._recent_peak_w[:] = 0.0
        self._suspect_until_s[:] = -np.inf
        self._last_shaves = self.shaver.shave_events_vector()
