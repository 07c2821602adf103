"""Fleet-level array kernels for the per-step hot path.

The simulator's inner loop used to advance 22 racks' batteries and
supercaps object-by-object — three ``exp`` evaluations and dozens of
attribute lookups per pack per tick. These kernels keep the *entire
fleet's* state in flat float64 arrays and advance every rack in one
vectorised step, which is what lets the fig15/fig16 sweeps run at the
0.5 s attack ``dt`` without Python-loop overhead.

Equivalence contract
--------------------

Every kernel here mirrors its scalar oracle *expression by expression*:

* :class:`KiBaMFleetState`   <-> :class:`~repro.battery.kibam.KiBaMBattery`
* :class:`VectorBatteryFleet`<-> :class:`~repro.battery.fleet.BatteryFleet`
  of :class:`~repro.battery.lead_acid.LeadAcidPack`
* :class:`SupercapFleetState`<-> :class:`~repro.battery.supercap.SupercapBank`

Because the fleet is homogeneous (shared ``c``, ``k``, ``dt``), every
``exp`` is evaluated once with ``math.exp`` — the same libm call the
scalar classes make — and all remaining arithmetic is elementwise IEEE
float64 in the same operation order, so the kernels agree with the
scalar path bit-for-bit (verified by ``tests/test_vectorized_equivalence.py``,
which also enforces a 1e-9 relative ceiling as a backstop).
"""

from __future__ import annotations

import math

import numpy as np

from ..config import BatteryConfig, SupercapConfig
from ..errors import BatteryError, ConfigError
from .fleet import BatteryFleet, FleetLogEntry
from .lead_acid import _RECONNECT_HYSTERESIS
from .pack import check_step_args

__all__ = [
    "KiBaMFleetState",
    "SupercapFleetState",
    "VectorBatteryFleet",
    "make_fleet",
]


class KiBaMFleetState:
    """Two-well kinetic batteries for a whole fleet, as arrays.

    State is a pair of vectors — available charge ``y1`` and bound charge
    ``y2`` over all racks — advanced together by closed-form
    constant-power steps. The rate constant ``k`` and well fraction ``c``
    are shared across the fleet (homogeneous cabinets, as in the paper),
    so the per-step exponential is a single scalar ``math.exp``.

    Args:
        capacity_j: Total (two-well) capacity per rack in joules; a
            scalar or one value per rack.
        c: Fraction of capacity in the available well, in ``(0, 1]``.
        k: Effective rate constant in 1/s.
        racks: Number of racks in the fleet.
        initial_soc: Starting total SOC, scalar or per rack.
    """

    def __init__(
        self,
        capacity_j: "float | np.ndarray",
        c: float,
        k: float,
        racks: int,
        initial_soc: "float | np.ndarray" = 1.0,
    ) -> None:
        if racks <= 0:
            raise BatteryError("fleet needs at least one rack")
        capacity = np.broadcast_to(
            np.asarray(capacity_j, dtype=float), (racks,)
        ).copy()
        if np.any(capacity <= 0.0):
            raise BatteryError("capacity must be positive")
        if not 0.0 < c <= 1.0:
            raise BatteryError("KiBaM c must be in (0, 1]")
        if k <= 0.0:
            raise BatteryError("KiBaM k must be positive")
        soc = np.broadcast_to(
            np.asarray(initial_soc, dtype=float), (racks,)
        ).copy()
        if np.any((soc < 0.0) | (soc > 1.0)):
            raise BatteryError("initial SOC must be in [0, 1]")
        self._capacity_j = capacity
        self._c = float(c)
        self._k = float(k)
        self._initial_soc = soc
        self._cap_available = self._c * capacity
        self._cap_bound = (1.0 - self._c) * capacity
        self._y1 = np.zeros(racks)
        self._y2 = np.zeros(racks)
        # Monotone state-change counter: memoised per-step quantities
        # (deliverable/acceptable power) key on it so schemes can ask
        # several times per tick without recomputing.
        self._version = 0
        # (dt, version, limit, y1 * exp(-k dt)): the product is also the
        # first term of the step from the same state.
        self._max_discharge_cache: (
            "tuple[float, int, np.ndarray, np.ndarray] | None"
        ) = None
        self._max_charge_cache: "tuple[float, int, np.ndarray] | None" = None
        # (version, total charge, SOC or None): one memo for both, since
        # the SOC is the total charge over the capacity.
        self._soc_cache: (
            "tuple[int, np.ndarray, np.ndarray | None] | None"
        ) = None
        # (dt, coefficient vectors): see :meth:`_coefficients`.
        self._coeff_cache: "tuple[float, tuple] | None" = None
        self.reset()

    # ------------------------------------------------------------------ #
    # State inspection                                                    #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._y1.size

    @property
    def version(self) -> int:
        """Counter bumped on every state mutation (cache-invalidation key)."""
        return self._version

    @property
    def capacity_j(self) -> np.ndarray:
        """Per-rack total capacity in joules."""
        return self._capacity_j

    @property
    def charge_j(self) -> np.ndarray:
        """Per-rack total stored charge (both wells) in joules.

        Memoised until the next state change, and read-only: the same
        array feeds the deliverable and acceptable power, the step and
        the SOC of one state.
        """
        cached = self._soc_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        charge = self._y1 + self._y2
        charge.flags.writeable = False
        self._soc_cache = (self._version, charge, None)
        return charge

    @property
    def available_j(self) -> np.ndarray:
        """Per-rack charge in the available well."""
        return self._y1

    @property
    def bound_j(self) -> np.ndarray:
        """Per-rack charge in the bound well."""
        return self._y2

    @property
    def soc(self) -> np.ndarray:
        """Per-rack total state of charge in ``[0, 1]``.

        Memoised until the next state change — treat the result as
        read-only.
        """
        charge = self.charge_j
        cached = self._soc_cache
        if cached[2] is not None:
            return cached[2]
        soc = charge / self._capacity_j
        self._soc_cache = (self._version, charge, soc)
        return soc

    # ------------------------------------------------------------------ #
    # Physics                                                             #
    # ------------------------------------------------------------------ #

    def _coefficients(self, dt: float) -> tuple:
        """The step's scalar coefficients for ``dt``, as per-rack vectors.

        Returns ``(coeff_b, vectors)``: the scalar ``coeff_b`` of
        :meth:`max_discharge_power`, and the vectors ``e``, ``1 - e``,
        ``k``, ``c``, ``1 - c``, ``shape``, ``coeff_b`` and ``0.0``, with
        ``e = exp(-k dt)`` and ``shape = (k dt - 1 + e) / k``. numpy
        takes a Python-float operand through a slower path than an
        array of the same length; either way every element meets the
        same operation on the same two values, so the results are
        bit-identical. Memoised per ``dt``.
        """
        cached = self._coeff_cache
        if cached is not None and cached[0] == dt:
            return cached[1]
        k, c = self._k, self._c
        e = math.exp(-k * dt)
        shape = (k * dt - 1.0 + e) / k
        coeff_b = (1.0 - e) / k + c * (k * dt - 1.0 + e) / k
        racks = self._y1.size
        vectors = tuple(
            np.full(racks, value)
            for value in (e, 1.0 - e, k, c, 1.0 - c, shape, coeff_b, 0.0)
        )
        coefficients = (coeff_b, vectors)
        self._coeff_cache = (dt, coefficients)
        return coefficients

    def max_discharge_power(self, dt: float) -> np.ndarray:
        """Per-rack largest constant draw sustainable for ``dt`` seconds.

        Memoised until the next state change — treat the result as
        read-only.
        """
        cached = self._max_discharge_cache
        if cached is not None and cached[0] == dt and cached[1] == self._version:
            return cached[2]
        check_step_args(0.0, dt)
        coeff_b, (e, one_minus_e, _, c, _, _, coeff_b_v, zero) = (
            self._coefficients(dt)
        )
        y0 = self.charge_j
        y1_e = self._y1 * e
        coeff_a = y1_e + y0 * c * one_minus_e
        if coeff_b <= 0.0:
            limit = np.zeros(len(self))
        else:
            limit = np.maximum(zero, coeff_a / coeff_b_v)
        self._max_discharge_cache = (dt, self._version, limit, y1_e)
        return limit

    def max_charge_power(self, dt: float) -> np.ndarray:
        """Per-rack largest charge power within total-capacity headroom.

        Memoised until the next state change — treat the result as
        read-only.
        """
        cached = self._max_charge_cache
        if cached is not None and cached[0] == dt and cached[1] == self._version:
            return cached[2]
        check_step_args(0.0, dt)
        headroom_j = self._capacity_j - self.charge_j
        limit = np.maximum(0.0, headroom_j / dt)
        self._max_charge_cache = (dt, self._version, limit)
        return limit

    def step(self, power_w: np.ndarray, dt: float) -> None:
        """Advance every rack under signed draw ``power_w`` (>0 discharge).

        The closed-form KiBaM update of
        :meth:`~repro.battery.kibam.KiBaMBattery._apply_step`, applied to
        the whole fleet at once. Callers are responsible for clamping the
        draw to the deliverable/acceptable limits first (as the scalar
        ``discharge``/``charge`` wrappers do).
        """
        if dt <= 0.0:
            raise BatteryError(f"time step must be positive, got {dt}")
        _, (e, one_minus_e, k, c, one_minus_c, shape, _, zero) = (
            self._coefficients(dt)
        )
        y0 = self.charge_j
        cached = self._max_discharge_cache
        if cached is not None and cached[0] == dt and cached[1] == self._version:
            y1_e = cached[3]
        else:
            y1_e = self._y1 * e
        y1_new = (
            y1_e
            + (y0 * k * c - power_w) * one_minus_e / k
            - power_w * c * shape
        )
        y2_new = (
            self._y2 * e
            + y0 * one_minus_c * one_minus_e
            - power_w * one_minus_c * shape
        )
        # Clip to physical bounds, exactly as the scalar kernel does.
        self._y1 = np.minimum(np.maximum(y1_new, zero), self._cap_available)
        self._y2 = np.minimum(np.maximum(y2_new, zero), self._cap_bound)
        self._version += 1

    def discharge(self, power_w: np.ndarray, dt: float) -> np.ndarray:
        """Draw up to ``power_w`` per rack; return power delivered."""
        power = np.asarray(power_w, dtype=float)
        if (power < 0.0).any():
            raise BatteryError("power must be non-negative")
        delivered = np.minimum(power, self.max_discharge_power(dt))
        delivered = np.maximum(delivered, 0.0)
        self.step(delivered, dt)
        return delivered

    def charge(self, power_w: np.ndarray, dt: float) -> np.ndarray:
        """Push up to ``power_w`` per rack; return power actually stored."""
        power = np.asarray(power_w, dtype=float)
        if (power < 0.0).any():
            raise BatteryError("power must be non-negative")
        requested = np.minimum(power, self.max_charge_power(dt))
        before = self.charge_j
        self.step(-requested, dt)
        return (self.charge_j - before) / dt

    def rest(self, dt: float) -> None:
        """Let every rack idle for ``dt`` seconds (charge recovery)."""
        check_step_args(0.0, dt)
        self.step(np.zeros(len(self)), dt)

    def apply_capacity_fade(self, fade: np.ndarray) -> None:
        """Permanently lose per-rack fractions of the *current* capacity.

        Mirrors :meth:`KiBaMBattery.apply_capacity_fade` elementwise:
        a zero entry leaves that rack's bits untouched (``x * 1.0`` and
        the re-derived well caps are exact), so only faulted racks move.
        The damage survives :meth:`reset`.
        """
        fractions = np.asarray(fade, dtype=float)
        if fractions.shape != self._y1.shape:
            raise BatteryError("need one fade fraction per rack")
        if ((fractions < 0.0) | (fractions >= 1.0)).any():
            raise BatteryError("capacity fade must be in [0, 1)")
        if not (fractions > 0.0).any():
            return
        self._capacity_j = self._capacity_j * (1.0 - fractions)
        self._cap_available = self._c * self._capacity_j
        self._cap_bound = (1.0 - self._c) * self._capacity_j
        self._y1 = np.minimum(self._y1, self._cap_available)
        self._y2 = np.minimum(self._y2, self._cap_bound)
        self._version += 1

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint (both wells
        plus the fade-mutable capacity; the version counter is excluded
        because it advances even when the physics state is unchanged)."""
        return {
            "y1": self._y1,
            "y2": self._y2,
            "capacity_j": self._capacity_j,
        }

    def reset(self) -> None:
        """Restore the initial SOC with equalised well heads."""
        total = self._capacity_j * self._initial_soc
        self._y1 = total * self._c
        self._y2 = total * (1.0 - self._c)
        self._version += 1


class VectorBatteryFleet:
    """Array-backed drop-in for :class:`~repro.battery.fleet.BatteryFleet`.

    Owns one :class:`KiBaMFleetState` plus the pack-level protection the
    scalar :class:`~repro.battery.lead_acid.LeadAcidPack` adds on top:
    low-voltage disconnect with hysteresis, the C-rate discharge ceiling,
    charge-path efficiency, and the aging counters. The per-pack object
    views (``packs``, ``__getitem__``) of the scalar fleet are *not*
    provided — schemes use the vector accessors instead.

    Args:
        config: Shared per-pack configuration.
        racks: Number of racks / packs.
        initial_soc: Scalar or one value per rack.
        keep_log: Record a :class:`FleetLogEntry` per step.
    """

    #: Dispatch code branches on this to pick the array call paths.
    vectorized = True

    def __init__(
        self,
        config: BatteryConfig,
        racks: int,
        initial_soc: "float | list[float]" = 1.0,
        keep_log: bool = False,
    ) -> None:
        if racks <= 0:
            raise BatteryError("fleet needs at least one rack")
        if not isinstance(initial_soc, (int, float)):
            socs = [float(s) for s in initial_soc]
            if len(socs) != racks:
                raise BatteryError(
                    f"got {len(socs)} initial SOCs for {racks} racks"
                )
            initial_soc = np.asarray(socs)
        self._config = config
        self._cells = KiBaMFleetState(
            config.capacity_j,
            config.kibam_c,
            config.kibam_k,
            racks,
            initial_soc=initial_soc,
        )
        self._disconnected = np.zeros(racks, dtype=bool)
        self._discharged_j = np.zeros(racks)
        self._charged_j = np.zeros(racks)
        self._deep_discharge_events = np.zeros(racks, dtype=np.int64)
        self._keep_log = keep_log
        self._log: "list[FleetLogEntry]" = []
        # Per-step memos for the power-limit vectors. All fleet mutation
        # (step, reset) flows through the cell kernel, so its version
        # counter also covers the LVD mask.
        self._max_discharge_memo: "tuple[float, int, np.ndarray] | None" = None
        self._max_charge_memo: "tuple[float, int, np.ndarray] | None" = None

    # ------------------------------------------------------------------ #
    # Views                                                               #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def config(self) -> BatteryConfig:
        """The shared pack configuration."""
        return self._config

    @property
    def cells(self) -> KiBaMFleetState:
        """The underlying two-well kernel (read for tests/metrics)."""
        return self._cells

    @property
    def disconnected(self) -> np.ndarray:
        """Per-rack low-voltage-disconnect state."""
        return self._disconnected.copy()

    def soc_vector(self) -> np.ndarray:
        """Per-rack state of charge as a float array."""
        return self._cells.soc

    def charge_vector_j(self) -> np.ndarray:
        """Per-rack stored energy in joules."""
        return self._cells.charge_j.copy()

    def capacity_j_vector(self) -> np.ndarray:
        """Per-rack (possibly faded) capacity in joules."""
        return self._cells.capacity_j.copy()

    def charge_above_j(self, floor_soc: float) -> np.ndarray:
        """Per-rack stored energy above a reserve floor, in joules.

        Same elementwise expression as the scalar oracle, so the two
        backends agree bitwise whenever the underlying charge and
        capacity vectors do.
        """
        return np.maximum(
            0.0,
            self.charge_vector_j() - floor_soc * self.capacity_j_vector(),
        )

    def available_j_vector(self) -> np.ndarray:
        """Per-rack charge in the KiBaM available well."""
        return self._cells.available_j.copy()

    def bound_j_vector(self) -> np.ndarray:
        """Per-rack charge in the KiBaM bound well."""
        return self._cells.bound_j.copy()

    @property
    def total_charge_j(self) -> float:
        """Aggregate stored energy (sequential sum, matching the oracle)."""
        return float(sum(self._cells.charge_j.tolist()))

    @property
    def total_capacity_j(self) -> float:
        """Aggregate capacity across the fleet."""
        return float(sum(self._cells.capacity_j.tolist()))

    @property
    def pool_soc(self) -> float:
        """Fleet-wide state of charge — the vDEB pool level."""
        capacity = self.total_capacity_j
        return self.total_charge_j / capacity if capacity else 0.0

    def soc_std(self) -> float:
        """Standard deviation of SOC across racks (paper Fig. 5 metric)."""
        return float(np.std(self.soc_vector()))

    def vulnerable_racks(self, soc_threshold: float) -> "list[int]":
        """Racks whose pack is at/below ``soc_threshold`` or disconnected."""
        weak = (self.soc_vector() <= soc_threshold) | self._disconnected
        return [int(i) for i in np.nonzero(weak)[0]]

    def discharged_j_vector(self) -> np.ndarray:
        """Lifetime energy delivered per rack, in joules."""
        return self._discharged_j.copy()

    def charged_j_vector(self) -> np.ndarray:
        """Lifetime energy absorbed per rack, in joules."""
        return self._charged_j.copy()

    def deep_discharge_events_vector(self) -> np.ndarray:
        """Per-rack count of LVD trips."""
        return self._deep_discharge_events.copy()

    def equivalent_full_cycles_vector(self) -> np.ndarray:
        """Per-rack lifetime throughput in equivalent full cycles."""
        return self._discharged_j / self._cells.capacity_j

    @property
    def log(self) -> "tuple[FleetLogEntry, ...]":
        """The recorded charge/discharge log (empty unless ``keep_log``)."""
        return tuple(self._log)

    # ------------------------------------------------------------------ #
    # Power interface                                                     #
    # ------------------------------------------------------------------ #

    def max_discharge_vector(self, dt: float) -> np.ndarray:
        """Per-rack deliverable power this step (zero while LVD is open).

        Memoised until the next state change — treat the result as
        read-only.
        """
        memo = self._max_discharge_memo
        if memo is not None and memo[0] == dt and memo[1] == self._cells._version:
            return memo[2]
        check_step_args(0.0, dt)
        limit = np.minimum(
            self._config.max_discharge_w, self._cells.max_discharge_power(dt)
        )
        limit = np.where(self._disconnected, 0.0, limit)
        self._max_discharge_memo = (dt, self._cells.version, limit)
        return limit

    def max_charge_vector(self, dt: float) -> np.ndarray:
        """Per-rack acceptable bus-side charge power this step.

        Memoised until the next state change — treat the result as
        read-only.
        """
        memo = self._max_charge_memo
        if memo is not None and memo[0] == dt and memo[1] == self._cells._version:
            return memo[2]
        check_step_args(0.0, dt)
        bus_limit = (
            self._cells.max_charge_power(dt) / self._config.charge_efficiency
        )
        limit = np.minimum(self._config.max_charge_w, bus_limit)
        self._max_charge_memo = (dt, self._cells.version, limit)
        return limit

    def step(
        self,
        discharge_w: "list[float] | np.ndarray",
        charge_w: "list[float] | np.ndarray",
        dt: float,
        time_s: float = 0.0,
    ) -> np.ndarray:
        """Apply one fleet step; return per-rack power actually delivered.

        Mirrors :meth:`BatteryFleet.step` rack for rack: discharging racks
        deliver what the cell and the C-rate ceiling allow, charging racks
        absorb through the efficiency-lossy path, idle racks rest (KiBaM
        recovery still proceeds), and a rack asked to do both raises.
        """
        cells = self._cells
        disconnected = self._disconnected
        racks = disconnected.size
        out = np.asarray(discharge_w, dtype=float)
        inn = np.asarray(charge_w, dtype=float)
        if out.shape != (racks,) or inn.shape != (racks,):
            raise BatteryError("power vectors must have one entry per rack")
        discharging = out > 0.0
        charging = inn > 0.0
        any_out = bool(discharging.any())
        any_in = bool(charging.any())
        if any_out and any_in:
            both = discharging & charging
            if both.any():
                rack = int(np.nonzero(both)[0][0])
                raise BatteryError(
                    f"rack {rack}: cannot charge and discharge in the same step"
                )
        # With every pack connected the LVD masks below are all-false.
        any_disconnected = bool(disconnected.any())

        # Discharge path: the pack clamps to its C-rate ceiling, then the
        # cell clamps to its deliverable power; an LVD-open pack rests.
        if any_out:
            live_discharge = (
                discharging & ~disconnected
                if any_disconnected
                else discharging
            )
            cell_limit = cells.max_discharge_power(dt)
            requested_out = np.minimum(out, self._config.max_discharge_w)
            delivered = np.where(
                live_discharge, np.minimum(requested_out, cell_limit), 0.0
            )
        else:
            delivered = np.zeros(racks)

        # Charge path: bus ceiling, efficiency loss, then the cell's
        # total-capacity headroom (charging works through an open LVD).
        # Skipping the all-zero branch is exact: subtracting, scaling or
        # accumulating a +0.0 vector leaves every float64 bit unchanged.
        efficiency = self._config.charge_efficiency
        if any_in:
            bus_power = np.minimum(inn, self._config.max_charge_w)
            cell_request = np.where(
                charging,
                np.minimum(
                    bus_power * efficiency, cells.max_charge_power(dt)
                ),
                0.0,
            )
            before_j = cells.charge_j
            cells.step(delivered - cell_request, dt)
            stored = (cells.charge_j - before_j) / dt
            accepted = np.where(charging, stored / efficiency, 0.0)
            self._charged_j += accepted * dt
        else:
            cells.step(delivered, dt)
            accepted = None

        if any_out:
            self._discharged_j += delivered * dt
        # The scalar pack skips its LVD update on the discharge-while-
        # disconnected path (the cell only rests); mirror that.
        if any_out and any_disconnected:
            self._update_lvd(~(discharging & disconnected), True)
        else:
            self._update_lvd(None, any_disconnected)

        if self._keep_log:
            charge_tuple = (
                tuple(accepted.tolist())
                if accepted is not None
                else (0.0,) * racks
            )
            self._log.append(
                FleetLogEntry(
                    time_s=time_s,
                    discharge_w=tuple(delivered.tolist()),
                    charge_w=charge_tuple,
                    soc=tuple(self.soc_vector().tolist()),
                )
            )
        return delivered

    def _update_lvd(
        self, mask: "np.ndarray | None", any_disconnected: bool
    ) -> None:
        """Open/close the per-rack disconnect from the current SOC.

        ``mask`` limits which racks may change state; ``None`` means all.
        ``any_disconnected`` is ``self._disconnected.any()``, which the
        caller has already evaluated.
        """
        soc = self._cells.soc
        if not any_disconnected:
            # Every pack is connected: nothing can close, and the
            # general update below reduces to the threshold test.
            opening = soc <= self._config.lvd_soc
            if mask is not None:
                opening &= mask
            if opening.any():
                self._disconnected = opening
                self._deep_discharge_events += opening
            return
        opening = ~self._disconnected & (soc <= self._config.lvd_soc)
        closing = self._disconnected & (
            soc >= self._config.lvd_soc + _RECONNECT_HYSTERESIS
        )
        if mask is not None:
            opening &= mask
            closing &= mask
        if opening.any() or closing.any():
            self._disconnected = (self._disconnected | opening) & ~closing
            self._deep_discharge_events += opening

    def apply_capacity_fade(self, fade: "list[float] | np.ndarray") -> None:
        """Permanently fade per-rack capacity (battery-string faults).

        Mirrors :meth:`BatteryFleet.apply_capacity_fade`: the cells fade
        elementwise and the LVD re-evaluates for the *faded* racks only
        (losing clipped charge can push a marginal pack through its
        disconnect threshold). Unfaded racks must not be touched: a pack
        whose LVD has never been evaluated — e.g. constructed at SOC 0
        and never stepped — stays connected in the scalar fleet, and the
        backends must agree on that.
        """
        fractions = np.asarray(fade, dtype=float)
        self._cells.apply_capacity_fade(fractions)
        faded = fractions > 0.0
        if faded.any():
            self._update_lvd(faded, bool(self._disconnected.any()))

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint (cells, LVD
        latches, aging counters and the offline-charger hysteresis mask
        the charger parks on this object)."""
        state = self._cells.ff_state()
        charging = getattr(self, "_offline_charge_on", None)
        state.update(
            disconnected=self._disconnected,
            discharged_j=self._discharged_j,
            charged_j=self._charged_j,
            deep_discharge_events=self._deep_discharge_events,
            offline_charge_on=(
                charging
                if charging is not None
                else np.zeros(len(self), dtype=bool)
            ),
        )
        if self._keep_log:
            # A logging fleet grows its log every step, so including the
            # length keeps the fingerprint from ever matching — jumps
            # would silently drop log entries.
            state["log_len"] = len(self._log)
        return state

    def reset(self) -> None:
        """Reset every pack to its initial SOC and clear the log.

        Aging counters persist, as in the scalar packs.
        """
        self._cells.reset()
        self._disconnected[:] = False
        self._log.clear()


class SupercapFleetState:
    """Array-backed super-capacitor banks, one per rack (the uDEB store).

    Mirrors :class:`~repro.battery.supercap.SupercapBank` semantics over
    the whole fleet: hard power ceiling, one-way conversion efficiency,
    and the shave-event/energy usage counters.
    """

    def __init__(
        self,
        config: SupercapConfig,
        racks: int,
        initial_soc: float = 1.0,
    ) -> None:
        if racks <= 0:
            raise ConfigError("need at least one rack")
        self._config = config
        self._capacity_j = float(config.capacity_j)
        self._initial_soc = float(initial_soc)
        self._charge_j = np.full(racks, self._capacity_j * self._initial_soc)
        self._shave_events = np.zeros(racks, dtype=np.int64)
        self._shaved_j = np.zeros(racks)
        # All-banks-full flag: while set, a full bank accepts exactly
        # zero power, so recharge can return early without array work.
        self._full = self._initial_soc >= 1.0

    def __len__(self) -> int:
        return self._charge_j.size

    @property
    def config(self) -> SupercapConfig:
        """The per-rack supercap configuration."""
        return self._config

    @property
    def charge_j(self) -> np.ndarray:
        """Per-rack stored energy in joules."""
        return self._charge_j.copy()

    @property
    def shave_events(self) -> np.ndarray:
        """Per-rack count of discharge interventions."""
        return self._shave_events.copy()

    @property
    def shaved_j(self) -> np.ndarray:
        """Per-rack energy delivered into spikes, in joules."""
        return self._shaved_j.copy()

    def soc_vector(self) -> np.ndarray:
        """Per-rack state of charge."""
        return self._charge_j / self._capacity_j

    def max_discharge_power(self, dt: float) -> np.ndarray:
        """Per-rack bus power the ORing path can source this step."""
        check_step_args(0.0, dt)
        energy_limit = self._charge_j * self._config.efficiency / dt
        return np.minimum(self._config.max_power_w, energy_limit)

    def max_charge_power(self, dt: float) -> np.ndarray:
        """Per-rack bus power the charger stage can sink this step."""
        check_step_args(0.0, dt)
        headroom_j = self._capacity_j - self._charge_j
        bus_limit = headroom_j / (self._config.efficiency * dt)
        return np.minimum(self._config.max_charge_w, bus_limit)

    def shave(self, excess_w: np.ndarray, dt: float) -> np.ndarray:
        """Source per-rack ``excess_w`` for ``dt``; return shaved power.

        The ORing conducts only on racks with positive excess, exactly as
        the scalar shaver only calls ``discharge`` on those banks.
        """
        excess = np.asarray(excess_w, dtype=float)
        if excess.shape != self._charge_j.shape:
            raise ConfigError("need one excess entry per rack")
        asked = excess > 0.0
        if not asked.any():
            check_step_args(0.0, dt)
            return np.zeros_like(excess)
        delivered = np.where(
            asked, np.minimum(excess, self.max_discharge_power(dt)), 0.0
        )
        fired = delivered > 0.0
        delivered_j = delivered * dt
        drained = np.maximum(
            self._charge_j - delivered_j / self._config.efficiency, 0.0
        )
        self._charge_j = np.where(fired, drained, self._charge_j)
        self._shave_events += fired
        self._shaved_j += delivered_j
        self._full = False
        return delivered

    def recharge(self, headroom_w: np.ndarray, dt: float) -> np.ndarray:
        """Trickle-charge from per-rack headroom; return bus power drawn."""
        headroom = np.asarray(headroom_w, dtype=float)
        if headroom.shape != self._charge_j.shape:
            raise ConfigError("need one headroom entry per rack")
        # A full bank has zero charge headroom, so ``accepted`` would be
        # identically zero and ``filled`` equal to the current charge —
        # skipping the array work is exact.
        asked = None if self._full else headroom > 0.0
        if asked is None or not asked.any():
            check_step_args(0.0, dt)
            return np.zeros_like(headroom)
        accepted = np.where(
            asked, np.minimum(headroom, self.max_charge_power(dt)), 0.0
        )
        filled = np.minimum(
            self._charge_j + accepted * self._config.efficiency * dt,
            self._capacity_j,
        )
        self._charge_j = np.where(asked, filled, self._charge_j)
        self._full = bool((self._charge_j >= self._capacity_j).all())
        return accepted

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint (the ``_full``
        flag is derived but included: it gates the recharge fast path)."""
        return {
            "charge_j": self._charge_j,
            "shave_events": self._shave_events,
            "shaved_j": self._shaved_j,
            "full": self._full,
        }

    def reset(self) -> None:
        """Refill every bank (usage counters persist)."""
        self._charge_j[:] = self._capacity_j * self._initial_soc
        self._full = self._initial_soc >= 1.0


def make_fleet(
    backend: str,
    config: BatteryConfig,
    racks: int,
    initial_soc: "float | list[float]" = 1.0,
) -> "BatteryFleet | VectorBatteryFleet":
    """Build the battery fleet for a backend (``scalar`` | ``vectorized``)."""
    if backend == "scalar":
        return BatteryFleet(config, racks, initial_soc=initial_soc)
    if backend == "vectorized":
        return VectorBatteryFleet(config, racks, initial_soc=initial_soc)
    raise ConfigError(f"unknown fleet backend: {backend!r}")
