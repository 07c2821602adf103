"""Software power-capping controller.

The paper's PSPC baseline combines peak shaving with DVFS capping: when a
rack is over budget and its battery cannot cover the excess, processor
frequency is reduced by 20 %. Two properties matter for the threat model:

* **Actuation latency.** "It often takes 100 ms - 300 ms to reduce the
  power demand, which is not fast enough to correctly shave the peak"
  (§4.2) — so a sub-second hidden spike is over before the cap lands.
* **Hold time.** Capping loops are deliberately sluggish to avoid
  oscillation; once engaged a cap stays on for a while, which is the
  throughput cost the attacker's visible peaks extract from PSPC.
"""

from __future__ import annotations

from ..config import CappingConfig
from ..errors import SimulationError


class CapController:
    """Per-rack DVFS-capping state machine with actuation latency.

    States: idle -> pending (cap requested, latency running) -> active
    (power reduced, hold timer running) -> idle. Re-triggering while active
    restarts the hold timer.
    """

    def __init__(self, config: CappingConfig) -> None:
        self._config = config
        self._pending_s: float | None = None
        self._hold_remaining_s = 0.0
        self._engaged_count = 0
        self._active_time_s = 0.0

    @property
    def config(self) -> CappingConfig:
        """The capping parameters."""
        return self._config

    @property
    def is_active(self) -> bool:
        """True while the DVFS cap is actually reducing power."""
        return self._hold_remaining_s > 0.0

    @property
    def is_pending(self) -> bool:
        """True while a cap has been requested but latency has not elapsed."""
        return self._pending_s is not None

    @property
    def engaged_count(self) -> int:
        """Number of times the cap transitioned pending -> active."""
        return self._engaged_count

    @property
    def active_time_s(self) -> float:
        """Total time spent with the cap active (throughput-loss exposure)."""
        return self._active_time_s

    def step(self, over_budget: bool, dt: float) -> bool:
        """Advance the controller by ``dt``.

        Args:
            over_budget: Whether the monitoring loop currently sees this
                rack above its enforceable budget.

        Returns:
            True if the cap is active for (the bulk of) this step.
        """
        if dt <= 0.0:
            raise SimulationError(f"dt must be positive, got {dt}")
        if self.is_active:
            if over_budget:
                # Re-trigger: sustained overload keeps the cap engaged.
                self._hold_remaining_s = self._config.hold_time_s
            self._hold_remaining_s = max(0.0, self._hold_remaining_s - dt)
            self._active_time_s += dt
            return True
        if self._pending_s is not None:
            self._pending_s += dt
            if self._pending_s >= self._config.latency_s:
                self._pending_s = None
                self._hold_remaining_s = self._config.hold_time_s
                self._engaged_count += 1
                self._active_time_s += dt
                return True
            return False
        if over_budget:
            if self._config.latency_s <= dt:
                # Latency shorter than the step: engage within this step.
                self._pending_s = None
                self._hold_remaining_s = self._config.hold_time_s
                self._engaged_count += 1
                self._active_time_s += dt
                return True
            # The triggering step itself counts toward the latency.
            self._pending_s = dt
        return False

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint.

        All fields are durations/counters (no absolute times), so they
        compare across time windows directly. ``active_time_s`` grows on
        every capped step, which automatically refuses a freeze while a
        cap is engaged.
        """
        return {
            "pending_s": self._pending_s,
            "hold_remaining_s": self._hold_remaining_s,
            "engaged_count": self._engaged_count,
            "active_time_s": self._active_time_s,
        }

    def reset(self) -> None:
        """Return to idle (counters persist)."""
        self._pending_s = None
        self._hold_remaining_s = 0.0
