"""Recharge policies for distributed energy backup units (paper §2.2, Fig. 5).

The paper contrasts two ways DEBs are recharged in practice:

* **Online charging** opportunistically recharges whenever the rack has
  spare power budget. SOC across racks stays within a few percent.
* **Offline charging** recharges only once SOC drops below a preset
  threshold, then charges back to full. Between those episodes a heavily
  used battery just sits discharged — roughly doubling the SOC spread and
  leaving racks vulnerable.

Both policies answer the same question each step: *given this much budget
headroom, how much charge power should this pack receive?*
"""

from __future__ import annotations

from typing import Protocol, Union

import numpy as np

from ..config import BatteryConfig, ChargingPolicy
from ..errors import BatteryError
from .lead_acid import LeadAcidPack
from .supercap import SupercapBank

Chargeable = Union[LeadAcidPack, SupercapBank]


class Charger(Protocol):
    """Recharge-policy contract."""

    def charge_power(self, pack: Chargeable, headroom_w: float, dt: float) -> float:
        """Charge power (bus-side watts) to apply this step.

        Args:
            pack: The store under management.
            headroom_w: Spare power budget available for charging.
            dt: Step length in seconds.
        """
        ...

    def fleet_charge_power(
        self,
        fleet,
        headroom_w: np.ndarray,
        active: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        """Per-rack charge power for one fleet step.

        Args:
            fleet: A battery fleet (scalar or vectorized backend).
            headroom_w: Per-rack spare power budget.
            active: Per-rack mask of racks eligible to charge this step.
                The policy's internal state only advances on active racks,
                matching the per-pack call pattern of the scalar path.
            dt: Step length in seconds.
        """
        ...


class OnlineCharger:
    """Opportunistic charging: use whatever headroom exists, every step."""

    def charge_power(self, pack: Chargeable, headroom_w: float, dt: float) -> float:
        if headroom_w <= 0.0:
            return 0.0
        return min(headroom_w, pack.max_charge_power(dt))

    def fleet_charge_power(
        self,
        fleet,
        headroom_w: np.ndarray,
        active: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        if not fleet.vectorized:
            power = np.zeros(len(fleet))
            for rack in np.nonzero(active)[0]:
                power[rack] = self.charge_power(
                    fleet[rack], float(headroom_w[rack]), dt
                )
            return power
        eligible = active & (headroom_w > 0.0)
        return np.where(
            eligible, np.minimum(headroom_w, fleet.max_charge_vector(dt)), 0.0
        )


class OfflineCharger:
    """Threshold charging: do nothing until SOC crosses the recharge line.

    Once triggered, the pack charges at full available rate until it is
    (numerically) full again, then the charger re-arms. The hysteresis is
    what produces the large SOC spread of paper Fig. 5.

    The hysteresis flag lives on the managed pack/fleet object itself
    (``_offline_charge_on``) rather than in an ``id()``-keyed side table:
    it travels with the object through pickling snapshots and is visible
    to the cohort freeze fingerprint.
    """

    #: Attribute storing the hysteresis flag on the pack/fleet object.
    STATE_ATTR = "_offline_charge_on"

    def __init__(self, recharge_soc: float, full_soc: float = 0.999) -> None:
        if not 0.0 < recharge_soc < full_soc <= 1.0:
            raise BatteryError(
                f"need 0 < recharge_soc < full_soc <= 1, got "
                f"{recharge_soc}, {full_soc}"
            )
        self._recharge_soc = recharge_soc
        self._full_soc = full_soc

    def charge_power(self, pack: Chargeable, headroom_w: float, dt: float) -> float:
        active = getattr(pack, self.STATE_ATTR, False)
        if not active and pack.soc <= self._recharge_soc:
            active = True
        elif active and pack.soc >= self._full_soc:
            active = False
        setattr(pack, self.STATE_ATTR, active)
        if not active or headroom_w <= 0.0:
            return 0.0
        return min(headroom_w, pack.max_charge_power(dt))

    def fleet_charge_power(
        self,
        fleet,
        headroom_w: np.ndarray,
        active: np.ndarray,
        dt: float,
    ) -> np.ndarray:
        if not fleet.vectorized:
            power = np.zeros(len(fleet))
            for rack in np.nonzero(active)[0]:
                power[rack] = self.charge_power(
                    fleet[rack], float(headroom_w[rack]), dt
                )
            return power
        state = getattr(fleet, self.STATE_ATTR, None)
        if state is None:
            state = np.zeros(len(fleet), dtype=bool)
        # The scalar path only consults the policy for racks it asks
        # about, so the hysteresis state advances under the mask only.
        soc = fleet.soc_vector()
        turn_on = active & ~state & (soc <= self._recharge_soc)
        turn_off = active & state & (soc >= self._full_soc)
        state = (state | turn_on) & ~turn_off
        setattr(fleet, self.STATE_ATTR, state)
        eligible = active & state & (headroom_w > 0.0)
        return np.where(
            eligible, np.minimum(headroom_w, fleet.max_charge_vector(dt)), 0.0
        )


def make_charger(policy: ChargingPolicy, battery: BatteryConfig) -> Charger:
    """Build the charger implementing ``policy`` for packs like ``battery``."""
    if policy is ChargingPolicy.ONLINE:
        return OnlineCharger()
    if policy is ChargingPolicy.OFFLINE:
        return OfflineCharger(recharge_soc=battery.offline_recharge_soc)
    raise BatteryError(f"unknown charging policy: {policy!r}")
