"""Inverse-time circuit-breaker model.

"Tripping a circuit breaker is not an instantaneous event since most PDU
can tolerate certain degrees of brief current overloads. However, once the
overload exceeds certain threshold, it requires very short time (several
seconds) to trip a circuit breaker." (paper §3.1, citing Meisner & Wenisch)

We reproduce that with the standard thermal-magnetic abstraction:

* **Thermal element.** While overloaded, an accumulator integrates
  ``(P / P_rated)^2 - 1`` (Joule heating above the sustainable level). The
  breaker trips when the accumulator exceeds ``trip_energy``; a constant
  overload ratio ``r`` therefore trips after ``trip_energy / (r^2 - 1)``
  seconds — the classic inverse-time curve. Below the rating the
  accumulator cools exponentially.
* **Magnetic element.** Overloads at or above ``instant_trip_ratio`` trip
  within one simulation step regardless of accumulated heat.

A tripped breaker stays open until explicitly :meth:`reset` — power is lost
downstream, which is the paper's definition of a successful attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import BreakerConfig
from ..errors import PowerTopologyError


@dataclass(frozen=True)
class TripEvent:
    """Record of a breaker trip.

    Attributes:
        time_s: Simulation time of the trip.
        power_w: Load power at the moment of the trip.
        overload_ratio: ``power / rated`` at the trip.
        instantaneous: True if the magnetic element fired (extreme
            overload), False for an inverse-time thermal trip.
    """

    time_s: float
    power_w: float
    overload_ratio: float
    instantaneous: bool


class CircuitBreaker:
    """A thermal-magnetic breaker protecting one power-delivery edge."""

    def __init__(self, config: BreakerConfig) -> None:
        self._config = config
        self._heat = 0.0
        self._tripped = False
        self._trip_event: TripEvent | None = None

    @property
    def config(self) -> BreakerConfig:
        """The trip-curve parameters."""
        return self._config

    @property
    def rated_w(self) -> float:
        """Continuous power rating in watts."""
        return self._config.rated_w

    @property
    def is_tripped(self) -> bool:
        """True once the breaker has opened (until :meth:`reset`)."""
        return self._tripped

    @property
    def heat(self) -> float:
        """Current thermal-accumulator level (trip at ``trip_energy``)."""
        return self._heat

    @property
    def trip_event(self) -> TripEvent | None:
        """Details of the trip, or ``None`` if the breaker is closed."""
        return self._trip_event

    def set_rating(self, rated_w: float) -> None:
        """Re-target the protection threshold (accumulated heat persists).

        Models a *configurable* protection element: modern iPDUs enforce
        per-outlet power limits in firmware, and PAD's vDEB controller
        legitimately moves those limits when it reassigns soft budgets.
        """
        if rated_w <= 0.0:
            raise PowerTopologyError("rating must be positive")
        self._config = self._config.with_rating(rated_w)

    def time_to_trip(self, power_w: float) -> float:
        """Seconds until trip if ``power_w`` were held constant from now.

        Returns ``inf`` at or below the rating and ``0`` at/above the
        instantaneous threshold. Useful for attack planning and for tests.
        """
        ratio = power_w / self._config.rated_w
        if ratio >= self._config.instant_trip_ratio:
            return 0.0
        if ratio <= 1.0:
            return math.inf
        remaining = self._config.trip_energy - self._heat
        return max(0.0, remaining / (ratio * ratio - 1.0))

    def step(self, power_w: float, dt: float, time_s: float = 0.0) -> bool:
        """Advance the breaker by ``dt`` under load ``power_w``.

        Returns:
            True if the breaker tripped during this step (it stays open
            afterwards; subsequent steps return False).

        Raises:
            PowerTopologyError: on non-positive ``dt`` or negative power.
        """
        if dt <= 0.0:
            raise PowerTopologyError(f"dt must be positive, got {dt}")
        if power_w < 0.0:
            raise PowerTopologyError(f"power must be non-negative, got {power_w}")
        if self._tripped:
            return False
        ratio = power_w / self._config.rated_w
        if ratio >= self._config.instant_trip_ratio:
            self._open(time_s, power_w, ratio, instantaneous=True)
            return True
        if ratio > 1.0:
            self._heat += (ratio * ratio - 1.0) * dt
            if self._heat >= self._config.trip_energy:
                self._open(time_s, power_w, ratio, instantaneous=False)
                return True
        else:
            self._heat *= math.exp(-dt / self._config.cooldown_tau_s)
        return False

    def _open(
        self, time_s: float, power_w: float, ratio: float, instantaneous: bool
    ) -> None:
        self._tripped = True
        self._trip_event = TripEvent(
            time_s=time_s,
            power_w=power_w,
            overload_ratio=ratio,
            instantaneous=instantaneous,
        )

    def reset(self) -> None:
        """Close the breaker and clear accumulated heat (manual re-arm)."""
        self._tripped = False
        self._heat = 0.0
        self._trip_event = None
