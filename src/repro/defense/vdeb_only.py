"""vDEB-only scheme: PS plus Algorithm-1 cluster-wide load sharing.

The battery fleet is managed as one virtual pool: discharge duty is
assigned SOC-proportionally (capped at ``P_ideal``) across all racks, and
the intelligent PDU's soft limits are reassigned to match, so a needy
rack's feed can carry more utility power while high-SOC neighbours cover
their own (reduced) budgets from their batteries.

Physical constraints respected: a rack's feed never exceeds its branch
rating — demand beyond the rating *must* come from the rack's own battery
— and a battery cannot discharge more than its own rack consumes.
"""

from __future__ import annotations

import numpy as np

from ..core.vdeb import VdebController
from ..sim.events import SoftLimitsReassigned
from .base import DefenseScheme, SchemeContext, StepState


#: Fraction of the rack nameplate the physical branch wiring can carry.
#: Rack feeds are typically provisioned with some slack over the budgeted
#: power but below the sum of server nameplates.
WIRING_MARGIN = 0.88


class VdebScheme(DefenseScheme):
    """PS + the vDEB controller (paper §4.2.1)."""

    name = "vDEB"
    uses_vdeb = True
    # vDEB never settles into an exactly periodic quiescent orbit: the
    # SOC-proportional pool keeps nudging per-rack discharge by a few
    # watts while KiBaM bound charge equalises geometrically, so the
    # fingerprint never repeats and a lag match could only be a false
    # positive. Opt out.
    ff_eligible = False

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        cfg = ctx.config
        self.controller = VdebController(
            cfg.vdeb, cfg.cluster.rack.battery.max_discharge_w
        )
        wiring_w = WIRING_MARGIN * cfg.cluster.rack.nameplate_w
        self._branch_rating_w = np.full(ctx.cluster.racks, wiring_w)
        # Keep every rack at least its idle power — a soft limit below
        # idle would starve healthy servers.
        self._floor_w = cfg.cluster.rack.idle_w
        self._rebalance_due_s = -np.inf
        # With a multi-PDU hierarchy the virtual pool is scoped per PDU:
        # each row's batteries cover that row's excess over *its* budget,
        # and soft-limit reassignment redistributes within the row only
        # (a battery behind PDU 2 cannot carry current for PDU 0's
        # racks). A flat hierarchy keeps the paper's cluster-wide pool.
        topo = ctx.topology
        self._pdu_pools = (
            topo if topo is not None and topo.has_pdu_tier else None
        )

    def battery_discharge(self, state: StepState) -> np.ndarray:
        """Algorithm-1 allocation plus the local branch-rating floor."""
        demand = state.rack_demand_w
        deliverable = self.fleet.max_discharge_vector(state.dt)
        # The controller allocates from the *sensed* SOC — a biased or
        # frozen sensor misleads the pool exactly as it would the real
        # controller; the physical fleet still clamps what is delivered.
        soc = self.telemetry.battery_soc(self.fleet)
        topo = self._pdu_pools
        if topo is None:
            # Cluster-level requirement: total demand above the PDU budget.
            pdu_budget = self.ctx.config.cluster.pdu_budget_w
            shave_w = max(0.0, float(np.sum(demand)) - pdu_budget)
            allocation = self.controller.allocate(
                soc=soc,
                rack_demand_w=demand,
                deliverable_w=deliverable,
                shave_w=shave_w,
            )
            pool_w = allocation.discharge_w
        else:
            # Per-PDU pools: one shave requirement and one Algorithm-1
            # allocation per contiguous rack block.
            pool_w = np.zeros(self.ctx.cluster.racks)
            demand_sums = topo.pdu_sums(demand)
            for j in range(topo.pdus):
                shave_w = max(
                    0.0, float(demand_sums[j]) - float(topo.pdu_budget_w[j])
                )
                if shave_w <= 0.0:
                    continue
                block = topo.rack_slice(j)
                allocation = self.controller.allocate(
                    soc=soc[block],
                    rack_demand_w=demand[block],
                    deliverable_w=deliverable[block],
                    shave_w=shave_w,
                )
                pool_w[block] = allocation.discharge_w
        comm_ok = self.telemetry.comm_ok
        if comm_ok is not None:
            # Unreachable racks get no pool duty: the controller cannot
            # command them. Their local hardware reflexes below (own
            # excess, wiring rating) keep acting on real current.
            pool_w = np.where(comm_ok, pool_w, 0.0)
        request = pool_w
        # Rack-level balancing: each rack still covers its own excess over
        # its *current* soft limit (that is what keeps the feed inside its
        # enforcement threshold), and demand above the physical wiring
        # rating can only ever come from the local battery.
        local_need = np.maximum(0.0, demand - self.soft_limits_w)
        local_min = np.maximum(0.0, demand - self._branch_rating_w)
        request = np.maximum(request, np.minimum(local_need, deliverable))
        request = np.maximum(request, np.minimum(local_min, deliverable))
        # Only the *pool-duty* share lowers a rack's soft limit. Folding
        # the local-need top-up back in would spiral: a low limit creates
        # local need, which would lower the limit further, draining the
        # victim's battery — the exact vulnerability vDEB exists to close.
        self._update_soft_limits(state, pool_w)
        return request

    #: Headroom added to each reassigned soft limit so recharge paths
    #: (battery trickle, uDEB top-up) are not starved by an exact fit.
    CHARGE_MARGIN_W = 150.0

    def soft_limit_floors(self, state: StepState) -> np.ndarray:
        """Per-rack lower bounds for the reassignment (hook for PAD)."""
        return np.full(self.ctx.cluster.racks, self._floor_w)

    def _update_soft_limits(
        self, state: StepState, discharge: np.ndarray
    ) -> None:
        """Reassign iPDU soft limits at the controller cadence.

        The controller is *software*: it sees the management meter's
        interval averages, never the instantaneous waveform — which is
        exactly why hidden spikes slip past it and only the uDEB hardware
        path (in PAD) can answer them. Degradation policy: telemetry past
        its TTL forces the fail-safe floors; racks the controller cannot
        reach hold their last commanded limit.
        """
        if state.telemetry_stale:
            self._apply_fail_safe_limits(state)
            return
        if state.time_s < self._rebalance_due_s:
            return
        self._rebalance_due_s = (
            state.time_s + self.controller.config.rebalance_interval_s
        )
        topo = self._pdu_pools
        floors = self.soft_limit_floors(state)
        ceiling = float(np.max(self._branch_rating_w))
        if topo is None:
            new_limits = self.controller.soft_limits_for(
                rack_demand_w=state.metered_rack_avg_w,
                discharge_w=discharge,
                pdu_budget_w=self.ctx.config.cluster.pdu_budget_w,
                floor_w=floors,
                ceiling_w=ceiling,
                margin_w=self.CHARGE_MARGIN_W,
            )
        else:
            # Reassign within each PDU's budget: freed headroom moves
            # between racks of the same row, never across rows, so every
            # tier of Eq. (2) stays satisfied by construction.
            new_limits = np.empty(self.ctx.cluster.racks)
            for j in range(topo.pdus):
                block = topo.rack_slice(j)
                new_limits[block] = self.controller.soft_limits_for(
                    rack_demand_w=state.metered_rack_avg_w[block],
                    discharge_w=discharge[block],
                    pdu_budget_w=float(topo.pdu_budget_w[j]),
                    floor_w=floors[block],
                    ceiling_w=ceiling,
                    margin_w=self.CHARGE_MARGIN_W,
                )
        comm_ok = self.telemetry.comm_ok
        if comm_ok is not None:
            # An iPDU the controller cannot reach keeps enforcing its
            # last commanded limit — reassignment only lands on racks
            # whose link is up.
            new_limits = np.where(comm_ok, new_limits, self.soft_limits_w)
        self.soft_limits_w = new_limits
        self.bus.publish(SoftLimitsReassigned(
            time_s=state.time_s, soft_limits_w=self.soft_limits_w.copy(),
        ))

    def _apply_fail_safe_limits(self, state: StepState) -> None:
        """Retreat to the provisioned budgets while telemetry is blind.

        The initial (equal-share) limits are the conservative floor every
        breaker was sized for: with no trustworthy meter view, holding a
        skewed reassignment could keep starving a rack whose load moved.
        The cadence re-arms so recovery reassigns on the first fresh
        reading.
        """
        self._rebalance_due_s = -np.inf
        if np.array_equal(self.soft_limits_w, self.initial_soft_limits_w):
            return
        self.soft_limits_w = self.initial_soft_limits_w.copy()
        self.bus.publish(SoftLimitsReassigned(
            time_s=state.time_s, soft_limits_w=self.soft_limits_w.copy(),
        ))

    def ff_state(self, now_s: float) -> dict:
        state = super().ff_state(now_s)
        # Normalised to a countdown so it compares across time windows.
        state["rebalance_in_s"] = self._rebalance_due_s - now_s
        return state

    def reset(self) -> None:
        super().reset()
        self._rebalance_due_s = -np.inf
