"""Conv — the conventional baseline (paper Table III).

"Conventional designs that do not discharge batteries dynamically and only
use them to handle outage." The battery cabinet sits idle as outage
insurance; any demand above the budget goes straight onto the utility feed
and the breaker. Conv is the floor every other scheme is measured against.
"""

from __future__ import annotations

import numpy as np

from .base import DefenseScheme, StepState


class ConvScheme(DefenseScheme):
    """Batteries are outage insurance only — no peak shaving at all."""

    name = "Conv"
    uses_peak_shaving = False
    # Idle batteries at full SOC are a bitwise fixed point, so quiescent
    # Conv stretches are periodic from the first management boundary.
    ff_eligible = True

    def battery_discharge(self, state: StepState) -> np.ndarray:
        """Never discharge for shaving."""
        return np.zeros(self.ctx.cluster.racks)
