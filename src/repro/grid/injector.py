"""Turns a :class:`~repro.grid.spec.GridPlan` into pipeline actions.

The injector is owned by a
:class:`~repro.sim.datacenter.DataCenterSimulation` and runs as its own
pipeline stage (after faults, before defense). Each step it:

1. walks the plan for window edges — a grid event opening publishes a
   typed :class:`~repro.sim.events.GridEventStarted`, an expiring one a
   :class:`~repro.sim.events.GridEventCleared` — always in plan order,
   so event streams are deterministic and comparable across backends;
2. recomposes the continuous grid state on any edge: the per-rack
   **feed factor** (what fraction of each rack's budgeted utility feed
   the sagged/browned-out grid can still serve), the facility-wide
   factor applied to mid-tier and cluster feeds, and the enforcement
   derate handed to the breaker bank;
3. while a frequency-regulation window is open, recomputes the duty
   command every step (the phase is a pure function of the clock).

Unlike the fault injector, the grid injector is completely stateless
beyond its active flags: no RNG streams, no captured sensor state.
Everything it exposes is recomputed from the plan and the clock, which
is what makes grid runs trivially bit-identical across backends and
snapshot forks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..sim.events import GridEventCleared, GridEventStarted
from .spec import (
    FrequencyRegulationDuty,
    GridPlan,
    UtilityBrownout,
    VoltageSag,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..sim.datacenter import DataCenterSimulation, StepContext

__all__ = ["GridInjector"]


class GridInjector:
    """Per-simulation grid machinery driven by one :class:`GridPlan`.

    Args:
        plan: The declarative plan; validated against the cluster size.
        sim: The owning simulation (scheme, bus, breakers).
    """

    def __init__(self, plan: GridPlan, sim: "DataCenterSimulation") -> None:
        racks = sim.cluster.racks
        plan.validate_for(racks)
        self._plan = plan
        self._sim = sim
        self._racks = racks
        self._active = [False] * len(plan.specs)
        # Composed continuous state, rebuilt on any window edge.
        self._feed_factor: "np.ndarray | None" = None
        self._facility_factor = 1.0
        self._freg_active: "list[int]" = []
        # Per-step duty command, recomputed while any regulation window
        # is open (the phase flips inside the window).
        self._freg_w: "np.ndarray | None" = None
        self._freg_floor: "np.ndarray | None" = None

    # ------------------------------------------------------------------ #
    # Pipeline stage                                                      #
    # ------------------------------------------------------------------ #

    def stage_grid(self, ctx: "StepContext") -> None:
        """Process grid-window edges for this step (pipeline stage)."""
        edges = False
        for index, spec in enumerate(self._plan.specs):
            active = spec.active_at(ctx.time_s)
            if active == self._active[index]:
                continue
            edges = True
            self._active[index] = active
            racks = spec.rack_tuple(self._racks)
            if active:
                self._sim.bus.publish(GridEventStarted(
                    time_s=ctx.time_s, event=spec.kind, racks=racks,
                ))
            else:
                self._sim.bus.publish(GridEventCleared(
                    time_s=ctx.time_s, event=spec.kind, racks=racks,
                ))
        if edges:
            self._recompose()
        if self._freg_active:
            self._update_freg(ctx.time_s)

    def _recompose(self) -> None:
        """Rebuild the composed grid state from the active specs."""
        sim = self._sim
        feed = np.ones(self._racks)
        facility = 1.0
        any_feed = False
        self._freg_active = []
        for index, spec in enumerate(self._plan.specs):
            if not self._active[index]:
                continue
            if isinstance(spec, VoltageSag):
                factor = 1.0 - spec.depth
                if spec.racks is None:
                    feed *= factor
                    facility *= factor
                else:
                    feed[list(spec.racks)] *= factor
                any_feed = True
            elif isinstance(spec, UtilityBrownout):
                factor = 1.0 - spec.derate
                feed *= factor
                facility *= factor
                any_feed = True
            elif isinstance(spec, FrequencyRegulationDuty):
                self._freg_active.append(index)
        self._feed_factor = feed if any_feed else None
        self._facility_factor = facility
        if any_feed:
            # One derate entry per breaker in bank order: rack entries
            # carry the per-rack feed factor; mid-tier and cluster
            # entries carry the facility-wide factor (a rack-targeted
            # sag does not derate the feeds above it).
            derate = np.ones(sim.topology.n_breakers)
            derate[: self._racks] = feed
            derate[self._racks:] = facility
            sim.set_grid_derate(derate)
        else:
            sim.set_grid_derate(None)
        if not self._freg_active:
            self._freg_w = None
            self._freg_floor = None

    def _update_freg(self, time_s: float) -> None:
        """Recompute the duty command from the clock (phase is pure)."""
        command = np.zeros(self._racks)
        floor = np.zeros(self._racks)
        any_on = False
        for index in self._freg_active:
            spec = self._plan.specs[index]
            if not spec.on_phase_at(time_s):
                continue
            targets = list(spec.rack_tuple(self._racks))
            command[targets] += spec.power_w
            floor[targets] = np.maximum(floor[targets], spec.floor_soc)
            any_on = True
        self._freg_w = command if any_on else None
        self._freg_floor = floor if any_on else None

    # ------------------------------------------------------------------ #
    # Scheme-facing state                                                 #
    # ------------------------------------------------------------------ #

    @property
    def feed_factor(self) -> "np.ndarray | None":
        """Per-rack fraction of the budgeted feed the grid can serve.

        ``None`` while no sag or brownout is active (the healthy path
        carries no array at all, keeping it bitwise identical to
        grid-free builds).
        """
        return self._feed_factor

    @property
    def facility_factor(self) -> float:
        """Facility-wide feed factor (mid-tier and cluster feeds)."""
        return self._facility_factor

    def freg_command(self) -> "tuple[np.ndarray | None, np.ndarray | None]":
        """``(power_w, floor_soc)`` duty vectors, or ``(None, None)``."""
        return self._freg_w, self._freg_floor

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def plan(self) -> GridPlan:
        """The driving plan."""
        return self._plan

    @property
    def any_active(self) -> bool:
        """True while any grid window is open."""
        return any(self._active)

    def next_edge_after(self, time_s: float) -> float:
        """Earliest grid edge strictly after ``time_s`` (``inf`` if none)."""
        upcoming = [
            t for t in self._plan.edge_times() if t > time_s + 1e-9
        ]
        return min(upcoming, default=float("inf"))

    def active_specs(self) -> "tuple[int, ...]":
        """Positions of currently-active specs (diagnostics/tests)."""
        return tuple(
            index for index, on in enumerate(self._active) if on
        )
