"""Super-capacitor bank — the energy store behind the uDEB (paper §4.2.2).

Super-capacitors are the opposite of lead-acid batteries on every axis the
paper cares about: tiny energy capacity, enormous power capability, no
meaningful cycle aging, and (through the ORing FET) an effectively
instantaneous response. We therefore model the bank as an ideal reservoir
with a hard power ceiling and a one-way conversion efficiency, and track
usage statistics rather than wear.
"""

from __future__ import annotations

from ..config import SupercapConfig
from ..units import fraction
from .pack import check_step_args


class SupercapBank:
    """A rack-level super-capacitor bank.

    Args:
        config: Sizing and efficiency parameters.
        initial_soc: Starting state of charge in ``[0, 1]``.
    """

    def __init__(self, config: SupercapConfig, initial_soc: float = 1.0) -> None:
        self._config = config
        self._capacity_j = config.capacity_j
        self._charge_j = self._capacity_j * initial_soc
        self._initial_soc = initial_soc
        self._shave_events = 0
        self._shaved_j = 0.0

    @property
    def config(self) -> SupercapConfig:
        """The bank's configuration."""
        return self._config

    @property
    def capacity_j(self) -> float:
        return self._capacity_j

    @property
    def charge_j(self) -> float:
        return self._charge_j

    @property
    def soc(self) -> float:
        return fraction(self._charge_j, self._capacity_j)

    @property
    def shave_events(self) -> int:
        """Number of discharge interventions since construction."""
        return self._shave_events

    @property
    def shaved_j(self) -> float:
        """Total energy delivered into spikes, in joules."""
        return self._shaved_j

    def max_discharge_power(self, dt: float) -> float:
        check_step_args(0.0, dt)
        energy_limit = self._charge_j * self._config.efficiency / dt
        return min(self._config.max_power_w, energy_limit)

    def max_charge_power(self, dt: float) -> float:
        check_step_args(0.0, dt)
        headroom_j = self._capacity_j - self._charge_j
        bus_limit = headroom_j / (self._config.efficiency * dt)
        return min(self._config.max_charge_w, bus_limit)

    def discharge(self, power_w: float, dt: float) -> float:
        """Source up to ``power_w`` onto the bus; returns bus-side power."""
        check_step_args(power_w, dt)
        delivered = min(power_w, self.max_discharge_power(dt))
        if delivered <= 0.0:
            return 0.0
        self._charge_j -= delivered * dt / self._config.efficiency
        self._charge_j = max(self._charge_j, 0.0)
        self._shave_events += 1
        self._shaved_j += delivered * dt
        return delivered

    def charge(self, power_w: float, dt: float) -> float:
        """Absorb up to ``power_w`` from the bus; returns bus-side power."""
        check_step_args(power_w, dt)
        accepted = min(power_w, self.max_charge_power(dt))
        self._charge_j = min(
            self._charge_j + accepted * self._config.efficiency * dt,
            self._capacity_j,
        )
        return accepted

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint."""
        return {
            "charge_j": self._charge_j,
            "shave_events": self._shave_events,
            "shaved_j": self._shaved_j,
        }

    def reset(self) -> None:
        """Restore the initial state of charge (usage counters persist)."""
        self._charge_j = self._capacity_j * self._initial_soc
