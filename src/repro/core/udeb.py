"""The uDEB spike shaver — ORing-FET semantics (paper §4.2.2).

The micro DEB is a small super-capacitor bank wired to the rack's power
bus through an ORing controller (a low-forward-voltage FET). The ORing
conducts *automatically* the instant the bus is asked for more than the
provisioned feed can give — no software in the loop, no 100-300 ms capping
latency, no metering blind spot. That hardware reflex is the only thing in
the system fast enough for sub-second hidden spikes.

Semantics per fine-grained tick:

* If the rack's residual draw (demand minus battery support) exceeds the
  protection threshold, the uDEB sources the excess, up to its power and
  energy limits.
* Otherwise it trickle-charges from whatever budget headroom exists.

The shaver is deliberately *not* used for sustained peaks: the paper
rejects that (PSU efficiency and thermal limits), and the tiny energy
capacity enforces it naturally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..battery.fleet_kernels import SupercapFleetState
from ..battery.supercap import SupercapBank
from ..config import SupercapConfig
from ..errors import ConfigError


@dataclass(frozen=True)
class ShaveResult:
    """Outcome of one uDEB tick across the racks.

    Attributes:
        shaved_w: Per-rack power the supercaps sourced this tick.
        unshaved_w: Per-rack excess the supercaps could not cover.
    """

    shaved_w: np.ndarray
    unshaved_w: np.ndarray

    @property
    def total_shaved_w(self) -> float:
        """Cluster-wide shaved power."""
        return float(np.sum(self.shaved_w))


class UdebShaver:
    """One super-capacitor bank per rack, with automatic ORing response.

    Args:
        config: Supercap sizing shared by all racks.
        racks: Number of racks.
    """

    def __init__(self, config: SupercapConfig, racks: int) -> None:
        if racks <= 0:
            raise ConfigError("need at least one rack")
        self._config = config
        self._banks = [SupercapBank(config) for _ in range(racks)]
        self._stuck_open = np.zeros(racks, dtype=bool)
        self._any_stuck = False

    @property
    def config(self) -> SupercapConfig:
        """The per-rack supercap configuration."""
        return self._config

    @property
    def banks(self) -> "tuple[SupercapBank, ...]":
        """The per-rack banks."""
        return tuple(self._banks)

    def __len__(self) -> int:
        return len(self._banks)

    def soc_vector(self) -> np.ndarray:
        """Per-rack supercap state of charge."""
        return np.array([b.soc for b in self._banks])

    def shave_events_vector(self) -> np.ndarray:
        """Per-rack count of discharge interventions."""
        return np.array(
            [b.shave_events for b in self._banks], dtype=np.int64
        )

    def shaved_j_vector(self) -> np.ndarray:
        """Per-rack energy delivered into spikes, in joules."""
        return np.array([b.shaved_j for b in self._banks])

    @property
    def min_soc(self) -> float:
        """Lowest per-rack SOC — the policy engine's uDEB-health input."""
        return float(np.min(self.soc_vector()))

    @property
    def pool_soc(self) -> float:
        """Aggregate supercap state of charge."""
        total_cap = sum(b.capacity_j for b in self._banks)
        if total_cap == 0.0:
            return 0.0
        return sum(b.charge_j for b in self._banks) / total_cap

    def set_stuck_open(self, mask: "np.ndarray | None") -> None:
        """Fail the ORing FET open on masked racks (``None`` heals all).

        A stuck-open FET cannot conduct: the bank never shaves, so the
        spike rides the utility feed. The charger is a separate path and
        keeps working — the bank sits full and useless.
        """
        if mask is None:
            self._stuck_open[:] = False
            self._any_stuck = False
            return
        stuck = np.asarray(mask, dtype=bool)
        if stuck.shape != (len(self._banks),):
            raise ConfigError("need one stuck-open entry per rack")
        self._stuck_open = stuck.copy()
        self._any_stuck = bool(stuck.any())

    @property
    def stuck_open(self) -> np.ndarray:
        """Per-rack stuck-open ORing-FET fault state."""
        return self._stuck_open.copy()

    def shave(self, excess_w: np.ndarray, dt: float) -> ShaveResult:
        """Source per-rack ``excess_w`` from the supercaps for ``dt``.

        The ORing conducts only when there is excess; zero-excess racks are
        untouched (charging is a separate, explicit step). A stuck-open
        FET never conducts: its excess goes unshaved.
        """
        excess = np.asarray(excess_w, dtype=float)
        if excess.shape != (len(self._banks),):
            raise ConfigError("need one excess entry per rack")
        shaved = np.zeros_like(excess)
        for i, bank in enumerate(self._banks):
            if excess[i] > 0.0 and not self._stuck_open[i]:
                shaved[i] = bank.discharge(float(excess[i]), dt)
        return ShaveResult(shaved_w=shaved, unshaved_w=excess - shaved)

    def recharge(self, headroom_w: np.ndarray, dt: float) -> np.ndarray:
        """Trickle-charge each bank from its rack's budget headroom.

        Returns:
            Per-rack bus power actually drawn for charging.
        """
        headroom = np.asarray(headroom_w, dtype=float)
        if headroom.shape != (len(self._banks),):
            raise ConfigError("need one headroom entry per rack")
        drawn = np.zeros_like(headroom)
        for i, bank in enumerate(self._banks):
            if headroom[i] > 0.0:
                drawn[i] = bank.charge(float(headroom[i]), dt)
        return drawn

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint."""
        bank_states = [b.ff_state() for b in self._banks]
        state = {
            key: np.array([s[key] for s in bank_states])
            for key in bank_states[0]
        }
        state["stuck_open"] = self._stuck_open
        return state

    def reset(self) -> None:
        """Refill every bank."""
        for bank in self._banks:
            bank.reset()


class VectorUdebShaver:
    """Array-backed drop-in for :class:`UdebShaver`.

    Wraps a :class:`~repro.battery.fleet_kernels.SupercapFleetState` so
    dispatch sees the same shave/recharge interface whichever backend the
    scheme was built with. The per-bank object view (``banks``) of the
    scalar shaver is not provided — use the vector accessors.
    """

    def __init__(self, config: SupercapConfig, racks: int) -> None:
        self._state = SupercapFleetState(config, racks)
        self._stuck_open = np.zeros(racks, dtype=bool)
        self._any_stuck = False

    @property
    def config(self) -> SupercapConfig:
        """The per-rack supercap configuration."""
        return self._state.config

    @property
    def state(self) -> SupercapFleetState:
        """The underlying array kernel (read for tests/metrics)."""
        return self._state

    def __len__(self) -> int:
        return len(self._state)

    def soc_vector(self) -> np.ndarray:
        """Per-rack supercap state of charge."""
        return self._state.soc_vector()

    def shave_events_vector(self) -> np.ndarray:
        """Per-rack count of discharge interventions."""
        return self._state.shave_events

    def shaved_j_vector(self) -> np.ndarray:
        """Per-rack energy delivered into spikes, in joules."""
        return self._state.shaved_j

    @property
    def min_soc(self) -> float:
        """Lowest per-rack SOC — the policy engine's uDEB-health input."""
        return float(self._state.soc_vector().min())

    @property
    def pool_soc(self) -> float:
        """Aggregate supercap state of charge (sequential sum, matching
        the per-bank oracle)."""
        charge = self._state.charge_j
        total_cap = sum([self._state.config.capacity_j] * len(self._state))
        if total_cap == 0.0:
            return 0.0
        return float(sum(charge.tolist())) / total_cap

    def set_stuck_open(self, mask: "np.ndarray | None") -> None:
        """Fail the ORing FET open on masked racks (``None`` heals all)."""
        if mask is None:
            self._stuck_open[:] = False
            self._any_stuck = False
            return
        stuck = np.asarray(mask, dtype=bool)
        if stuck.shape != (len(self._state),):
            raise ConfigError("need one stuck-open entry per rack")
        self._stuck_open = stuck.copy()
        self._any_stuck = bool(stuck.any())

    @property
    def stuck_open(self) -> np.ndarray:
        """Per-rack stuck-open ORing-FET fault state."""
        return self._stuck_open.copy()

    def shave(self, excess_w: np.ndarray, dt: float) -> ShaveResult:
        """Source per-rack ``excess_w`` from the supercaps for ``dt``."""
        excess = np.asarray(excess_w, dtype=float)
        conducted = (
            np.where(self._stuck_open, 0.0, excess)
            if self._any_stuck
            else excess
        )
        shaved = self._state.shave(conducted, dt)
        return ShaveResult(shaved_w=shaved, unshaved_w=excess - shaved)

    def recharge(self, headroom_w: np.ndarray, dt: float) -> np.ndarray:
        """Trickle-charge each bank from its rack's budget headroom."""
        return self._state.recharge(np.asarray(headroom_w, dtype=float), dt)

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint."""
        state = self._state.ff_state()
        state["stuck_open"] = self._stuck_open
        return state

    def reset(self) -> None:
        """Refill every bank."""
        self._state.reset()


def make_shaver(
    backend: str, config: SupercapConfig, racks: int
) -> "UdebShaver | VectorUdebShaver":
    """Build the uDEB shaver for a backend (``scalar`` | ``vectorized``)."""
    if backend == "scalar":
        return UdebShaver(config, racks)
    if backend == "vectorized":
        return VectorUdebShaver(config, racks)
    raise ConfigError(f"unknown shaver backend: {backend!r}")
