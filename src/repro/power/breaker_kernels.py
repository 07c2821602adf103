"""Vectorized breaker-bank thermal integrator.

``stage_protection`` advances one breaker per rack plus the cluster-level
breaker every fine-grained tick — 23 Python-object ``step`` calls per
0.5 s of simulated time in the fig15/fig16 sweeps. The bank kernels here
hold every breaker's rating, heat accumulator and trip latch in flat
arrays and advance the whole bank in one call.

Two implementations share the interface:

* :class:`ScalarBreakerBank` — an adapter over a list of
  :class:`~repro.power.breaker.CircuitBreaker` objects, the oracle.
* :class:`BreakerBankState` — the array kernel. Ratios, heating and the
  exponential cooldown use the same IEEE float64 expressions as the
  scalar breaker (the cooldown's ``exp`` is a single scalar ``math.exp``
  because ``dt``/``tau`` are shared), so heat and trip times agree
  bit-for-bit — enforced by ``tests/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import BreakerConfig
from ..errors import ConfigError, PowerTopologyError
from ..kernels import get_kernels
from .breaker import CircuitBreaker, TripEvent

__all__ = [
    "BreakerBankState",
    "CompiledBreakerBank",
    "ScalarBreakerBank",
    "make_breaker_bank",
]


class ScalarBreakerBank:
    """A bank of scalar :class:`CircuitBreaker` objects — the oracle.

    Args:
        shape: Trip-curve parameters shared by every breaker (each entry
            of ``rated_w`` re-targets a copy via ``with_rating``).
        rated_w: Per-breaker continuous rating in watts.
    """

    #: Protection code branches on this to pick the call paths.
    vectorized = False

    def __init__(self, shape: BreakerConfig, rated_w: np.ndarray) -> None:
        ratings = np.asarray(rated_w, dtype=float)
        if ratings.ndim != 1 or ratings.size == 0:
            raise ConfigError("need a 1-D, non-empty rating vector")
        self._breakers = [
            CircuitBreaker(shape.with_rating(float(r))) for r in ratings
        ]

    @classmethod
    def from_breakers(
        cls, breakers: "list[CircuitBreaker]"
    ) -> "ScalarBreakerBank":
        """Wrap existing breaker objects without copying them.

        The bank *shares* the breaker objects — stepping the bank steps
        the originals. This is how :class:`~repro.power.topology.PowerTree`
        keeps its object tree (the differential oracle) as the single
        source of truth while exposing the bank interface.
        """
        if not breakers:
            raise ConfigError("need at least one breaker")
        bank = cls.__new__(cls)
        bank._breakers = list(breakers)
        return bank

    def __len__(self) -> int:
        return len(self._breakers)

    @property
    def breakers(self) -> "tuple[CircuitBreaker, ...]":
        """The managed breakers, for tests and drill-down."""
        return tuple(self._breakers)

    @property
    def rated_w(self) -> np.ndarray:
        """Per-breaker continuous rating in watts."""
        return np.array([b.rated_w for b in self._breakers])

    @property
    def heat(self) -> np.ndarray:
        """Per-breaker thermal-accumulator level."""
        return np.array([b.heat for b in self._breakers])

    @property
    def tripped(self) -> np.ndarray:
        """Per-breaker open/closed latch."""
        return np.array([b.is_tripped for b in self._breakers])

    @property
    def any_tripped(self) -> bool:
        """True if at least one breaker in the bank is open."""
        return any(b.is_tripped for b in self._breakers)

    def set_ratings(self, rated_w: np.ndarray) -> None:
        """Re-target every breaker (accumulated heat persists)."""
        ratings = np.asarray(rated_w, dtype=float)
        if ratings.shape != (len(self._breakers),):
            raise ConfigError("need one rating per breaker")
        for breaker, rating in zip(self._breakers, ratings):
            breaker.set_rating(float(rating))

    def time_to_trip(self, power_w: np.ndarray) -> np.ndarray:
        """Per-breaker seconds-to-trip under constant ``power_w``."""
        power = np.asarray(power_w, dtype=float)
        if power.shape != (len(self._breakers),):
            raise ConfigError("need one load entry per breaker")
        return np.array(
            [b.time_to_trip(float(p)) for b, p in zip(self._breakers, power)]
        )

    def step(
        self, power_w: np.ndarray, dt: float, time_s: float = 0.0
    ) -> "list[int]":
        """Advance the bank one step; return newly-tripped indices ascending."""
        power = np.asarray(power_w, dtype=float)
        if power.shape != (len(self._breakers),):
            raise ConfigError("need one load entry per breaker")
        newly = []
        for i, breaker in enumerate(self._breakers):
            if breaker.step(float(power[i]), dt, time_s):
                newly.append(i)
        return newly

    def trip_event(self, index: int) -> "TripEvent | None":
        """The trip record of breaker ``index`` (``None`` while closed)."""
        return self._breakers[index].trip_event

    def reset(self, index: int) -> None:
        """Close breaker ``index`` and clear its heat (manual re-arm)."""
        self._breakers[index].reset()

    def reset_all(self) -> None:
        """Re-arm every breaker in the bank."""
        for breaker in self._breakers:
            breaker.reset()


class BreakerBankState:
    """Array-backed thermal-magnetic breakers — one vector step per tick.

    Args:
        shape: Trip-curve parameters shared by every breaker.
        rated_w: Per-breaker continuous rating in watts.
    """

    vectorized = True

    def __init__(self, shape: BreakerConfig, rated_w: np.ndarray) -> None:
        ratings = np.asarray(rated_w, dtype=float)
        if ratings.ndim != 1 or ratings.size == 0:
            raise ConfigError("need a 1-D, non-empty rating vector")
        if np.any(ratings <= 0.0):
            raise PowerTopologyError("rating must be positive")
        self._shape = shape
        self._rated_w = ratings.copy()
        self._heat = np.zeros(ratings.size)
        self._tripped = np.zeros(ratings.size, dtype=bool)
        self._trip_events: "list[TripEvent | None]" = [None] * ratings.size

    def __len__(self) -> int:
        return self._rated_w.size

    @property
    def config(self) -> BreakerConfig:
        """The shared trip-curve parameters."""
        return self._shape

    @property
    def rated_w(self) -> np.ndarray:
        """Per-breaker continuous rating in watts."""
        return self._rated_w.copy()

    @property
    def heat(self) -> np.ndarray:
        """Per-breaker thermal-accumulator level."""
        return self._heat.copy()

    @property
    def tripped(self) -> np.ndarray:
        """Per-breaker open/closed latch."""
        return self._tripped.copy()

    @property
    def any_tripped(self) -> bool:
        """True if at least one breaker in the bank is open."""
        return bool(self._tripped.any())

    def set_ratings(self, rated_w: np.ndarray) -> None:
        """Re-target every breaker (accumulated heat persists)."""
        ratings = np.asarray(rated_w, dtype=float)
        if ratings.shape != self._rated_w.shape:
            raise ConfigError("need one rating per breaker")
        if (ratings <= 0.0).any():
            raise PowerTopologyError("rating must be positive")
        self._rated_w = ratings.copy()

    def time_to_trip(self, power_w: np.ndarray) -> np.ndarray:
        """Per-breaker seconds-to-trip under constant ``power_w``."""
        power = np.asarray(power_w, dtype=float)
        if power.shape != self._rated_w.shape:
            raise ConfigError("need one load entry per breaker")
        ratio = power / self._rated_w
        remaining = self._shape.trip_energy - self._heat
        with np.errstate(divide="ignore", invalid="ignore"):
            thermal = np.maximum(0.0, remaining / (ratio * ratio - 1.0))
        out = np.where(ratio <= 1.0, math.inf, thermal)
        return np.where(ratio >= self._shape.instant_trip_ratio, 0.0, out)

    def step(
        self, power_w: np.ndarray, dt: float, time_s: float = 0.0
    ) -> "list[int]":
        """Advance the bank one step; return newly-tripped indices ascending.

        Mirrors :meth:`CircuitBreaker.step` breaker for breaker: tripped
        breakers are inert; the magnetic element fires at or above the
        instant ratio; overloaded thermal elements heat by
        ``(ratio² − 1)·dt`` and latch at ``trip_energy``; everything else
        cools exponentially.
        """
        if dt <= 0.0:
            raise PowerTopologyError(f"dt must be positive, got {dt}")
        power = np.asarray(power_w, dtype=float)
        if power.shape != self._rated_w.shape:
            raise ConfigError("need one load entry per breaker")
        if (power < 0.0).any():
            worst = float(np.min(power))
            raise PowerTopologyError(
                f"power must be non-negative, got {worst}"
            )
        ratio = power / self._rated_w
        if not (ratio > 1.0).any() and not self._tripped.any():
            # Whole bank cooling (the common benign-tick case):
            # instant_trip_ratio > 1, so nothing heats or latches.
            self._heat *= math.exp(-dt / self._shape.cooldown_tau_s)
            return []
        active = ~self._tripped
        instant = active & (ratio >= self._shape.instant_trip_ratio)
        overloaded = active & ~instant & (ratio > 1.0)
        cooling = active & ~instant & ~overloaded
        self._heat[overloaded] += (
            ratio[overloaded] * ratio[overloaded] - 1.0
        ) * dt
        self._heat[cooling] *= math.exp(-dt / self._shape.cooldown_tau_s)
        thermal = overloaded & (self._heat >= self._shape.trip_energy)
        newly = instant | thermal
        if not newly.any():
            return []
        self._tripped |= newly
        indices = [int(i) for i in np.nonzero(newly)[0]]
        for i in indices:
            self._trip_events[i] = TripEvent(
                time_s=time_s,
                power_w=float(power[i]),
                overload_ratio=float(ratio[i]),
                instantaneous=bool(instant[i]),
            )
        return indices

    def trip_event(self, index: int) -> "TripEvent | None":
        """The trip record of breaker ``index`` (``None`` while closed)."""
        return self._trip_events[index]

    def reset(self, index: int) -> None:
        """Close breaker ``index`` and clear its heat (manual re-arm)."""
        self._tripped[index] = False
        self._heat[index] = 0.0
        self._trip_events[index] = None

    def reset_all(self) -> None:
        """Re-arm every breaker in the bank."""
        self._tripped[:] = False
        self._heat[:] = 0.0
        self._trip_events = [None] * len(self)


class CompiledBreakerBank(BreakerBankState):
    """Breaker bank stepping through the compiled kernel tier.

    Input validation (and the error taxonomy) stays in numpy — errors
    are not hot; the thermal integration runs as one compiled call
    mutating the heat/trip arrays in place. Trip *events* are rare, so
    they are reconstructed in Python from the kernel's newly-tripped
    mask with the exact expressions the numpy path records. Falls back
    to the numpy step if the provider vanished (e.g. an unpickled bank
    on a machine without numba or a C compiler).
    """

    def step(
        self, power_w: np.ndarray, dt: float, time_s: float = 0.0
    ) -> "list[int]":
        kernels = get_kernels()
        if kernels is None:
            return super().step(power_w, dt, time_s)
        if dt <= 0.0:
            raise PowerTopologyError(f"dt must be positive, got {dt}")
        power = np.ascontiguousarray(power_w, dtype=float)
        if power.shape != self._rated_w.shape:
            raise ConfigError("need one load entry per breaker")
        if (power < 0.0).any():
            worst = float(np.min(power))
            raise PowerTopologyError(
                f"power must be non-negative, got {worst}"
            )
        ratio = power / self._rated_w
        if not (ratio > 1.0).any() and not self._tripped.any():
            # Same whole-bank-cooling shortcut as the numpy step (the
            # common benign-tick case); skips the kernel call and the
            # newly-tripped scratch allocation. Bit-identical: the
            # kernel's cooling branch computes heat[i] * cool too.
            self._heat *= math.exp(-dt / self._shape.cooldown_tau_s)
            return []
        newly = np.zeros(len(self), dtype=np.uint8)
        count = kernels.breaker_step(
            len(self), power, self._rated_w, self._heat,
            self._tripped.view(np.uint8), newly,
            dt, math.exp(-dt / self._shape.cooldown_tau_s),
            self._shape.instant_trip_ratio, self._shape.trip_energy,
        )
        if count == 0:
            return []
        indices = [int(i) for i in np.nonzero(newly)[0]]
        for i in indices:
            ratio = float(power[i] / self._rated_w[i])
            self._trip_events[i] = TripEvent(
                time_s=time_s,
                power_w=float(power[i]),
                overload_ratio=ratio,
                instantaneous=bool(ratio >= self._shape.instant_trip_ratio),
            )
        return indices


def make_breaker_bank(
    backend: str,
    shape: BreakerConfig,
    rated_w: np.ndarray,
    kernels: str = "numpy",
) -> "ScalarBreakerBank | BreakerBankState":
    """Build a breaker bank for a backend (``scalar`` | ``vectorized``).

    ``kernels="compiled"`` upgrades the vectorized bank to the compiled
    thermal step (a no-op for the scalar oracle, which exists to check
    the others).
    """
    if backend == "scalar":
        return ScalarBreakerBank(shape, rated_w)
    if backend == "vectorized":
        if kernels == "compiled" and get_kernels() is not None:
            return CompiledBreakerBank(shape, rated_w)
        return BreakerBankState(shape, rated_w)
    raise ConfigError(f"unknown breaker backend: {backend!r}")
