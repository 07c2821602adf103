"""uDEB-only scheme: PS plus rack-level super-capacitor spike shaving.

Local peak shaving as in PS, with one micro-DEB supercap bank per rack
behind an ORing FET. Whatever excess the (possibly drained) battery leaves
on a rack's feed is absorbed by the supercap instantly, up to its power
and tiny energy limits — lethal against sub-second hidden spikes, nearly
useless against sustained peaks, exactly as designed.
"""

from __future__ import annotations

import numpy as np

from ..core.udeb import make_shaver
from .base import DefenseScheme, SchemeContext, StepState


class UdebScheme(DefenseScheme):
    """PS + per-rack uDEB spike shaving (paper §4.2.2)."""

    name = "uDEB"
    uses_udeb = True
    # after_battery below is the shared shave/recharge body the compiled
    # tier knows how to fuse (see DefenseScheme.fused_after_battery).
    fused_after_battery = True
    # Supercap charge is part of the fingerprint (``ff_state`` below), so
    # a mid-recharge bank blocks a freeze until it tops off and goes
    # static.
    ff_eligible = True

    def __init__(self, ctx: SchemeContext) -> None:
        super().__init__(ctx)
        self.shaver = make_shaver(
            ctx.backend, ctx.config.supercap, ctx.cluster.racks
        )

    def after_battery(self, state: StepState, residual_w: np.ndarray
                      ) -> "tuple[np.ndarray, np.ndarray]":
        """Shave the battery's leftover excess; trickle-charge otherwise."""
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
        return state

    def reset(self) -> None:
        super().reset()
        self.shaver.reset()
