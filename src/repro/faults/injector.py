"""Turns a :class:`~repro.faults.spec.FaultPlan` into pipeline actions.

The injector is owned by a
:class:`~repro.sim.datacenter.DataCenterSimulation` and runs as its own
pipeline stage (between demand and defense). Each step it:

1. walks the plan for window edges — a fault becoming active fires its
   one-shot physical damage (capacity fade) or arms its continuous state
   (telemetry masks, SOC sensor lies, comm loss, stuck ORing FETs,
   breaker derating), publishing a typed
   :class:`~repro.sim.events.FaultInjected`; a fault expiring heals the
   state and publishes :class:`~repro.sim.events.FaultCleared` — always
   in plan order, so event streams are deterministic and comparable
   across backends;
2. hands the simulation the sensed (possibly noised) meter arrays and
   the dropout masks used to feed the scheme's
   :class:`~repro.defense.telemetry.TelemetryView`.

Everything random (Gaussian telemetry noise) derives from the plan seed
(falling back to the simulation's config seed) and the spec's position,
so a plan replays identically — run to run, backend to backend, process
to process.

The injector's lifetime is the simulation's: one-shot faults fire once
per simulation object. Build a fresh simulation per run, as the
experiment helpers do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..sim.events import FaultCleared, FaultInjected
from .spec import (
    BatteryFade,
    BreakerMisrating,
    FaultPlan,
    SocBias,
    SocFreeze,
    TelemetryDropout,
    TelemetryNoise,
    UdebStuckOpen,
    VdebCommLoss,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..sim.datacenter import DataCenterSimulation, StepContext

__all__ = ["FaultInjector"]


class FaultInjector:
    """Per-simulation fault machinery driven by one :class:`FaultPlan`.

    Args:
        plan: The declarative plan; validated against the cluster size.
        sim: The owning simulation (scheme, bus, breakers, meters).
    """

    def __init__(self, plan: FaultPlan, sim: "DataCenterSimulation") -> None:
        racks = sim.cluster.racks
        plan.validate_for(racks)
        self._plan = plan
        self._sim = sim
        self._racks = racks
        self._active = [False] * len(plan.specs)
        seed = plan.seed if plan.seed is not None else sim.config.seed
        base_seed = 0 if seed is None else int(seed)
        # One independent, position-keyed stream per noise spec so that
        # adding a spec never perturbs another spec's draws.
        self._rngs = {
            index: np.random.default_rng((base_seed, index))
            for index, spec in enumerate(plan.specs)
            if isinstance(spec, TelemetryNoise)
        }
        # Captured true SOC vectors for active freeze specs, keyed by
        # spec position (captured at the fault's rising edge).
        self._frozen: "dict[int, np.ndarray]" = {}
        # Composed continuous state, rebuilt on any window edge.
        self._rack_ok: "np.ndarray | None" = None
        self._server_ok: "np.ndarray | None" = None
        self._active_noise: "list[int]" = []

    # ------------------------------------------------------------------ #
    # Pipeline stage                                                      #
    # ------------------------------------------------------------------ #

    def stage_faults(self, ctx: "StepContext") -> None:
        """Process fault-window edges for this step (pipeline stage)."""
        edges = False
        for index, spec in enumerate(self._plan.specs):
            active = spec.active_at(ctx.time_s)
            if active == self._active[index]:
                continue
            edges = True
            self._active[index] = active
            racks = spec.rack_tuple(self._racks)
            if active:
                self._on_activate(index, spec, ctx.time_s)
                self._sim.bus.publish(FaultInjected(
                    time_s=ctx.time_s, fault=spec.kind, racks=racks,
                ))
            else:
                self._on_clear(index)
                self._sim.bus.publish(FaultCleared(
                    time_s=ctx.time_s, fault=spec.kind, racks=racks,
                ))
        if edges:
            self._recompose()

    def _on_activate(self, index: int, spec, time_s: float) -> None:
        """Rising edge: apply one-shot damage / capture sensor state."""
        if isinstance(spec, BatteryFade):
            fade = np.zeros(self._racks)
            fade[list(spec.rack_tuple(self._racks))] = spec.fade
            self._sim.scheme.fleet.apply_capacity_fade(fade)
        elif isinstance(spec, SocFreeze):
            # The stuck sensor reports whatever the pack truly held the
            # instant it froze.
            self._frozen[index] = np.array(
                self._sim.scheme.fleet.soc_vector(), dtype=float, copy=True
            )

    def _on_clear(self, index: int) -> None:
        """Falling edge: drop per-spec captured state."""
        self._frozen.pop(index, None)

    # ------------------------------------------------------------------ #
    # Continuous fault state                                              #
    # ------------------------------------------------------------------ #

    def _mask_for(self, spec) -> np.ndarray:
        mask = np.zeros(self._racks, dtype=bool)
        mask[list(spec.rack_tuple(self._racks))] = True
        return mask

    def _recompose(self) -> None:
        """Rebuild every composed mask/vector from the active specs."""
        sim = self._sim
        view = sim.scheme.telemetry
        dropped = np.zeros(self._racks, dtype=bool)
        comm_lost = np.zeros(self._racks, dtype=bool)
        stuck = np.zeros(self._racks, dtype=bool)
        bias = np.zeros(self._racks)
        freeze_mask = np.zeros(self._racks, dtype=bool)
        frozen = np.zeros(self._racks)
        # One derate entry per breaker in bank order: racks, then any
        # mid-tier PDU breakers, then the cluster breaker. A whole-plan
        # misrating scales every tier; rack-scoped specs touch only the
        # rack entries.
        derate = np.ones(sim.topology.n_breakers)
        self._active_noise = []
        any_dropout = any_comm = any_stuck = False
        any_bias = any_freeze = any_derate = False
        for index, spec in enumerate(self._plan.specs):
            if not self._active[index]:
                continue
            if isinstance(spec, TelemetryDropout):
                dropped |= self._mask_for(spec)
                any_dropout = True
            elif isinstance(spec, TelemetryNoise):
                self._active_noise.append(index)
            elif isinstance(spec, SocBias):
                bias += np.where(self._mask_for(spec), spec.bias, 0.0)
                any_bias = True
            elif isinstance(spec, SocFreeze):
                mask = self._mask_for(spec)
                freeze_mask |= mask
                frozen = np.where(mask, self._frozen[index], frozen)
                any_freeze = True
            elif isinstance(spec, VdebCommLoss):
                comm_lost |= self._mask_for(spec)
                any_comm = True
            elif isinstance(spec, UdebStuckOpen):
                stuck |= self._mask_for(spec)
                any_stuck = True
            elif isinstance(spec, BreakerMisrating):
                if spec.racks is None:
                    derate *= spec.factor
                else:
                    derate[list(spec.racks)] *= spec.factor
                any_derate = True
        self._rack_ok = ~dropped if any_dropout else None
        self._server_ok = (
            self._rack_ok[sim.server_rack_index]
            if self._rack_ok is not None
            else None
        )
        view.set_comm_loss(comm_lost if any_comm else None)
        view.set_soc_bias(bias if any_bias else None)
        view.set_soc_freeze(
            freeze_mask if any_freeze else None,
            frozen if any_freeze else None,
        )
        shaver = getattr(sim.scheme, "shaver", None)
        if shaver is not None:
            shaver.set_stuck_open(stuck if any_stuck else None)
        elif any_stuck:
            # The fault physically exists even when the scheme fields no
            # uDEB; with no shave path to break it is inert by design.
            pass
        sim.set_breaker_derate(derate if any_derate else None)

    # ------------------------------------------------------------------ #
    # Telemetry feed                                                      #
    # ------------------------------------------------------------------ #

    def telemetry_masks(self) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """``(rack_ok, server_ok)`` observation masks (``None`` = all)."""
        return self._rack_ok, self._server_ok

    def sensed_rack_avg(self, rack_avg_w: np.ndarray) -> np.ndarray:
        """The meter vector as the sensors report it (noise applied).

        Returns the input object untouched while no noise fault is
        active, keeping the healthy path bit-identical and copy-free.
        Draws happen every step a noise spec is active — including on
        racks simultaneously dropped — so the stream position depends
        only on the step sequence, never on other faults.
        """
        if not self._active_noise:
            return rack_avg_w
        noisy = rack_avg_w.copy()
        for index in self._active_noise:
            spec = self._plan.specs[index]
            targets = list(spec.rack_tuple(self._racks))
            draw = self._rngs[index].normal(0.0, spec.sigma_w, len(targets))
            noisy[targets] = np.maximum(noisy[targets] + draw, 0.0)
        return noisy

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def plan(self) -> FaultPlan:
        """The driving plan."""
        return self._plan

    def active_specs(self) -> "tuple[int, ...]":
        """Positions of currently-active specs (diagnostics/tests)."""
        return tuple(
            index for index, on in enumerate(self._active) if on
        )
