"""PSPC — peak shaving plus power capping (paper Table III).

PS augmented with a DVFS capping loop that "can decrease processor
frequency by 20 %" when a rack's *metered* demand exceeds its budget.
Capping slows battery drain during sustained peaks (good) at a direct
throughput cost (bad), and — crucially for the threat model — it reacts to
interval averages with 100-300 ms actuation latency, so hidden spikes
sail through it.
"""

from __future__ import annotations

from .base import DefenseScheme


class PeakShavingPowerCappingScheme(DefenseScheme):
    """PS + metered DVFS capping (the base class implements both)."""

    name = "PSPC"
    uses_capping = True
    # Capping state lives in the base fingerprint (controller timers via
    # ``ff_state``); an engaged cap accrues ``active_time_s`` every step,
    # which auto-refuses a freeze while capping is live.
    ff_eligible = True
