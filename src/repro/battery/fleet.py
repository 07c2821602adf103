"""Fleet management for per-rack battery cabinets.

A :class:`BatteryFleet` owns one :class:`~repro.battery.lead_acid.LeadAcidPack`
per rack and provides the vectorised views (SOC arrays, aggregate energy)
that the vDEB controller, the policy engine and the experiment harness all
consume. It also keeps the charge/discharge log the paper mentions
("we maintain detailed charge/discharge logs").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import BatteryConfig
from ..errors import BatteryError
from .lead_acid import LeadAcidPack


@dataclass(frozen=True)
class FleetLogEntry:
    """One fleet step in the charge/discharge log.

    Attributes:
        time_s: Simulation time at the end of the step.
        discharge_w: Per-rack power delivered by each pack (watts).
        charge_w: Per-rack power absorbed by each pack (watts).
        soc: Per-rack state of charge after the step.
    """

    time_s: float
    discharge_w: tuple[float, ...]
    charge_w: tuple[float, ...]
    soc: tuple[float, ...]


class BatteryFleet:
    """All rack battery cabinets of a cluster, managed together.

    Args:
        config: Per-pack configuration (homogeneous fleet, as in the paper).
        racks: Number of racks / packs.
        initial_soc: Either a scalar applied to every pack or one value per
            pack (useful for reproducing uneven-usage scenarios).
        keep_log: Record a :class:`FleetLogEntry` per logged step. Disabled
            by default because month-long fine-grained runs would otherwise
            accumulate millions of entries.
    """

    #: Dispatch code branches on this to pick the per-pack call paths.
    #: The array-backed twin (``VectorBatteryFleet``) sets it ``True``.
    vectorized = False

    def __init__(
        self,
        config: BatteryConfig,
        racks: int,
        initial_soc: float | list[float] = 1.0,
        keep_log: bool = False,
    ) -> None:
        if racks <= 0:
            raise BatteryError("fleet needs at least one rack")
        if isinstance(initial_soc, (int, float)):
            socs = [float(initial_soc)] * racks
        else:
            socs = [float(s) for s in initial_soc]
            if len(socs) != racks:
                raise BatteryError(
                    f"got {len(socs)} initial SOCs for {racks} racks"
                )
        self._config = config
        self._packs = [LeadAcidPack(config, initial_soc=s) for s in socs]
        self._keep_log = keep_log
        self._log: list[FleetLogEntry] = []

    # ------------------------------------------------------------------ #
    # Views                                                               #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._packs)

    def __getitem__(self, rack: int) -> LeadAcidPack:
        return self._packs[rack]

    @property
    def packs(self) -> tuple[LeadAcidPack, ...]:
        """The managed packs, indexed by rack."""
        return tuple(self._packs)

    @property
    def config(self) -> BatteryConfig:
        """The shared pack configuration."""
        return self._config

    def soc_vector(self) -> np.ndarray:
        """Per-rack state of charge as a float array."""
        return np.array([p.soc for p in self._packs])

    def charge_vector_j(self) -> np.ndarray:
        """Per-rack stored energy in joules."""
        return np.array([p.charge_j for p in self._packs])

    def capacity_j_vector(self) -> np.ndarray:
        """Per-rack (possibly faded) capacity in joules."""
        return np.array([p.capacity_j for p in self._packs])

    def charge_above_j(self, floor_soc: float) -> np.ndarray:
        """Per-rack stored energy above a reserve floor, in joules.

        The defense slice of a :class:`~repro.grid.reserve.ReservePolicy`
        partition: what the schemes may spend without eating into the
        ride-through reserve. Clamped at zero once a pack sinks below
        the floor.
        """
        return np.maximum(
            0.0,
            self.charge_vector_j() - floor_soc * self.capacity_j_vector(),
        )

    @property
    def total_charge_j(self) -> float:
        """Aggregate stored energy across the fleet."""
        return float(sum(p.charge_j for p in self._packs))

    @property
    def total_capacity_j(self) -> float:
        """Aggregate capacity across the fleet."""
        return float(sum(p.capacity_j for p in self._packs))

    @property
    def pool_soc(self) -> float:
        """Fleet-wide state of charge — the vDEB pool level."""
        capacity = self.total_capacity_j
        return self.total_charge_j / capacity if capacity else 0.0

    def soc_std(self) -> float:
        """Standard deviation of SOC across racks (paper Fig. 5 metric)."""
        return float(np.std(self.soc_vector()))

    def vulnerable_racks(self, soc_threshold: float) -> list[int]:
        """Racks whose pack is at/below ``soc_threshold`` or disconnected."""
        return [
            i
            for i, p in enumerate(self._packs)
            if p.soc <= soc_threshold or p.is_disconnected
        ]

    @property
    def disconnected(self) -> np.ndarray:
        """Per-rack low-voltage-disconnect state."""
        return np.array([p.is_disconnected for p in self._packs])

    def available_j_vector(self) -> np.ndarray:
        """Per-rack charge in the KiBaM available well."""
        return np.array([p.available_j for p in self._packs])

    def bound_j_vector(self) -> np.ndarray:
        """Per-rack charge in the KiBaM bound well."""
        return np.array([p.bound_j for p in self._packs])

    def max_discharge_vector(self, dt: float) -> np.ndarray:
        """Per-rack deliverable power this step (zero while LVD is open)."""
        return np.array([p.max_discharge_power(dt) for p in self._packs])

    def max_charge_vector(self, dt: float) -> np.ndarray:
        """Per-rack acceptable bus-side charge power this step."""
        return np.array([p.max_charge_power(dt) for p in self._packs])

    def discharged_j_vector(self) -> np.ndarray:
        """Lifetime energy delivered per rack, in joules."""
        return np.array([p.discharged_j for p in self._packs])

    def charged_j_vector(self) -> np.ndarray:
        """Lifetime energy absorbed per rack, in joules."""
        return np.array([p.charged_j for p in self._packs])

    def deep_discharge_events_vector(self) -> np.ndarray:
        """Per-rack count of LVD trips."""
        return np.array(
            [p.deep_discharge_events for p in self._packs], dtype=np.int64
        )

    def equivalent_full_cycles_vector(self) -> np.ndarray:
        """Per-rack lifetime throughput in equivalent full cycles."""
        return np.array([p.equivalent_full_cycles for p in self._packs])

    @property
    def log(self) -> tuple[FleetLogEntry, ...]:
        """The recorded charge/discharge log (empty unless ``keep_log``)."""
        return tuple(self._log)

    # ------------------------------------------------------------------ #
    # Stepping                                                            #
    # ------------------------------------------------------------------ #

    def step(
        self,
        discharge_w: "list[float] | np.ndarray",
        charge_w: "list[float] | np.ndarray",
        dt: float,
        time_s: float = 0.0,
    ) -> np.ndarray:
        """Apply one fleet step; return per-rack power actually delivered.

        Packs asked to neither charge nor discharge still :meth:`rest` so
        KiBaM recovery proceeds. A pack asked to do both in one step is a
        caller bug and raises.
        """
        if len(discharge_w) != len(self._packs) or len(charge_w) != len(self._packs):
            raise BatteryError("power vectors must have one entry per rack")
        delivered = np.zeros(len(self._packs))
        accepted = np.zeros(len(self._packs))
        for i, pack in enumerate(self._packs):
            want_out = float(discharge_w[i])
            want_in = float(charge_w[i])
            if want_out > 0.0 and want_in > 0.0:
                raise BatteryError(
                    f"rack {i}: cannot charge and discharge in the same step"
                )
            if want_out > 0.0:
                delivered[i] = pack.discharge(want_out, dt)
            elif want_in > 0.0:
                accepted[i] = pack.charge(want_in, dt)
            else:
                pack.rest(dt)
        if self._keep_log:
            self._log.append(
                FleetLogEntry(
                    time_s=time_s,
                    discharge_w=tuple(delivered.tolist()),
                    charge_w=tuple(accepted.tolist()),
                    soc=tuple(self.soc_vector().tolist()),
                )
            )
        return delivered

    def apply_capacity_fade(self, fade: "list[float] | np.ndarray") -> None:
        """Permanently fade per-rack capacity (battery-string faults).

        ``fade`` holds one fraction per rack; zero entries are untouched.
        Like the aging counters, the damage survives :meth:`reset`.
        """
        fractions = np.asarray(fade, dtype=float)
        if fractions.shape != (len(self._packs),):
            raise BatteryError("need one fade fraction per rack")
        if np.any((fractions < 0.0) | (fractions >= 1.0)):
            raise BatteryError("capacity fade must be in [0, 1)")
        for pack, fraction_lost in zip(self._packs, fractions.tolist()):
            if fraction_lost > 0.0:
                pack.apply_capacity_fade(fraction_lost)

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint.

        Per-pack state stacked into arrays; bitwise-identical fingerprints
        imply bitwise-identical fleet behaviour under identical dispatch.
        """
        pack_states = [p.ff_state() for p in self._packs]
        state = {
            key: np.array([s[key] for s in pack_states])
            for key in pack_states[0]
        }
        if self._keep_log:
            # A growing log never fingerprints as periodic, so jumps can
            # never silently drop entries from a logging fleet.
            state["log_len"] = len(self._log)
        return state

    def reset(self) -> None:
        """Reset every pack to its initial SOC and clear the log."""
        for pack in self._packs:
            pack.reset()
        self._log.clear()
