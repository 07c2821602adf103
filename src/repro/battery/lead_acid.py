"""Lead-acid battery cabinet: KiBaM physics plus pack-level protection.

This is the rack-level DEB unit of the paper (a Facebook-V1-style battery
cabinet). On top of the raw :class:`~repro.battery.kibam.KiBaMBattery` it
adds the behaviours the threat model hinges on:

* **Low-voltage disconnect (LVD).** Real DEB systems isolate a deeply
  discharged pack from the load (Facebook trips at 1.75 V/cell). Once the
  LVD opens, the pack delivers nothing until it has been recharged past a
  reconnect threshold — this is the window the Phase-II attack exploits.
* **Maximum discharge rate.** Lead-acid packs have a safety/aging C-rate
  ceiling; the vDEB controller's ``P_ideal`` cap exists because of it.
* **Aging counters.** Energy throughput, deep-discharge events and
  equivalent full cycles are tracked so experiments can report the wear
  cost of a management policy.
"""

from __future__ import annotations

from ..config import BatteryConfig
from ..units import fraction
from .kibam import KiBaMBattery
from .pack import check_step_args

#: Hysteresis above the LVD threshold required before the pack reconnects.
#: Deliberately wide: battery-management firmware avoids rapid
#: reconnect/disconnect cycling on a nearly empty pack.
_RECONNECT_HYSTERESIS = 0.10


class LeadAcidPack:
    """A protected lead-acid DEB unit.

    Args:
        config: Electrical and protection parameters.
        initial_soc: Starting state of charge in ``[0, 1]``.
    """

    def __init__(self, config: BatteryConfig, initial_soc: float = 1.0) -> None:
        self._config = config
        self._cell = KiBaMBattery(
            capacity_j=config.capacity_j,
            c=config.kibam_c,
            k=config.kibam_k,
            initial_soc=initial_soc,
        )
        self._disconnected = False
        # Aging / bookkeeping counters.
        self._discharged_j = 0.0
        self._charged_j = 0.0
        self._deep_discharge_events = 0

    # ------------------------------------------------------------------ #
    # State                                                               #
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> BatteryConfig:
        """The pack's configuration."""
        return self._config

    @property
    def capacity_j(self) -> float:
        return self._cell.capacity_j

    @property
    def charge_j(self) -> float:
        return self._cell.charge_j

    @property
    def available_j(self) -> float:
        """Charge in the cell's available well."""
        return self._cell.available_j

    @property
    def bound_j(self) -> float:
        """Charge in the cell's bound well."""
        return self._cell.bound_j

    @property
    def soc(self) -> float:
        return self._cell.soc

    @property
    def is_disconnected(self) -> bool:
        """True while the low-voltage disconnect has the pack isolated."""
        return self._disconnected

    @property
    def discharged_j(self) -> float:
        """Lifetime energy delivered to the load, in joules."""
        return self._discharged_j

    @property
    def charged_j(self) -> float:
        """Lifetime energy absorbed from the bus, in joules."""
        return self._charged_j

    @property
    def deep_discharge_events(self) -> int:
        """Number of times the LVD has tripped — a proxy for abuse."""
        return self._deep_discharge_events

    @property
    def equivalent_full_cycles(self) -> float:
        """Lifetime throughput expressed in equivalent full cycles."""
        return fraction(self._discharged_j, self.capacity_j)

    # ------------------------------------------------------------------ #
    # Power interface                                                     #
    # ------------------------------------------------------------------ #

    def _update_lvd(self) -> None:
        """Open or close the disconnect based on the current SOC."""
        if not self._disconnected and self._cell.soc <= self._config.lvd_soc:
            self._disconnected = True
            self._deep_discharge_events += 1
        elif self._disconnected and (
            self._cell.soc >= self._config.lvd_soc + _RECONNECT_HYSTERESIS
        ):
            self._disconnected = False

    def max_discharge_power(self, dt: float) -> float:
        check_step_args(0.0, dt)
        if self._disconnected:
            return 0.0
        return min(self._config.max_discharge_w, self._cell.max_discharge_power(dt))

    def max_charge_power(self, dt: float) -> float:
        check_step_args(0.0, dt)
        # Charging works even while disconnected from the load — the LVD
        # isolates the discharge path only.
        bus_limit = self._cell.max_charge_power(dt) / self._config.charge_efficiency
        return min(self._config.max_charge_w, bus_limit)

    def discharge(self, power_w: float, dt: float) -> float:
        """Deliver up to ``power_w``; zero while the LVD is open."""
        check_step_args(power_w, dt)
        if self._disconnected:
            self._cell.rest(dt)
            return 0.0
        delivered = self._cell.discharge(
            min(power_w, self._config.max_discharge_w), dt
        )
        self._discharged_j += delivered * dt
        self._update_lvd()
        return delivered

    def charge(self, power_w: float, dt: float) -> float:
        """Absorb up to ``power_w`` from the bus; returns bus-side power.

        Charge-path losses mean the cell stores ``charge_efficiency`` of the
        bus-side energy.
        """
        check_step_args(power_w, dt)
        bus_power = min(power_w, self._config.max_charge_w)
        stored = self._cell.charge(bus_power * self._config.charge_efficiency, dt)
        accepted = stored / self._config.charge_efficiency
        self._charged_j += accepted * dt
        self._update_lvd()
        return accepted

    def rest(self, dt: float) -> None:
        """Idle for ``dt`` seconds (KiBaM charge recovery still happens)."""
        self._cell.rest(dt)
        self._update_lvd()

    def apply_capacity_fade(self, fade: float) -> None:
        """Permanently lose ``fade`` of current capacity (string damage).

        The LVD re-evaluates afterwards: losing stored charge can push a
        marginal pack through its disconnect threshold.
        """
        self._cell.apply_capacity_fade(fade)
        if fade > 0.0:
            self._update_lvd()

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint.

        Cell wells, the LVD latch, the aging counters, and the offline-
        charger hysteresis flag the charger parks on this object.
        """
        state = self._cell.ff_state()
        state.update(
            disconnected=self._disconnected,
            discharged_j=self._discharged_j,
            charged_j=self._charged_j,
            deep_discharge_events=self._deep_discharge_events,
            offline_charge_on=bool(getattr(self, "_offline_charge_on", False)),
        )
        return state

    def reset(self) -> None:
        """Restore initial charge and clear protection state (not counters)."""
        self._cell.reset()
        self._disconnected = False
