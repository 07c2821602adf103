"""Declarative fault specifications — the *what/when/where* of a fault.

A :class:`FaultPlan` is a picklable, validated list of
:class:`FaultSpec` dataclasses, windowed the same way attack windows
are: each spec names a time window (or an instant, for one-shot physical
damage), the racks it touches, and its fault-specific parameters. The
:class:`~repro.faults.injector.FaultInjector` turns the plan into
per-step pipeline actions and typed
:class:`~repro.sim.events.FaultEvent` publications.

Plans are deliberately dumb data: no simulator handles, no numpy arrays
— just floats, ints and tuples — so a plan can ride inside a frozen
``SweepCell`` through a process pool and derive everything random from
the cell seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..errors import ConfigError, FaultInjectionError

__all__ = [
    "BatteryFade",
    "BreakerMisrating",
    "FaultPlan",
    "FaultSpec",
    "SocBias",
    "SocFreeze",
    "TelemetryDropout",
    "TelemetryNoise",
    "UdebStuckOpen",
    "VdebCommLoss",
    "reject_overlapping_windows",
]


def reject_overlapping_windows(specs, plan_name: str) -> None:
    """Reject same-kind windowed specs whose windows and targets overlap.

    Two windowed specs of the same ``kind`` that are simultaneously
    active on a shared rack would silently compose last-writer-wins (a
    frozen SOC vector, a sag depth) instead of doing anything physical.
    Such plans are almost always authoring mistakes, so they fail
    eagerly with a :class:`~repro.errors.ConfigError` naming both
    windows. One-shot specs are exempt (no duration to overlap), and
    ``racks=None`` (every rack) conflicts with any target set.

    Shared by :class:`FaultPlan` and :class:`~repro.grid.spec.GridPlan`.
    """
    windowed = [
        (index, spec)
        for index, spec in enumerate(specs)
        if not spec.one_shot
    ]
    for position, (i, a) in enumerate(windowed):
        for j, b in windowed[position + 1:]:
            if a.kind != b.kind:
                continue
            if not (a.start_s < b.end_s and b.start_s < a.end_s):
                continue
            racks_a = a.racks
            racks_b = b.racks
            if (
                racks_a is not None
                and racks_b is not None
                and not set(racks_a) & set(racks_b)
            ):
                continue
            raise ConfigError(
                f"{plan_name}: {a.kind} windows "
                f"[{a.start_s:g}, {a.end_s:g}) (spec {i}) and "
                f"[{b.start_s:g}, {b.end_s:g}) (spec {j}) overlap on "
                "shared racks — overlapping same-target windows compose "
                "last-writer-wins; merge them into one spec"
            )


def _normalised_racks(racks) -> "tuple[int, ...] | None":
    """Sorted unique rack tuple, or ``None`` for "every rack"."""
    if racks is None:
        return None
    normalised = tuple(sorted({int(r) for r in racks}))
    if not normalised:
        raise FaultInjectionError("racks=() targets nothing; use None for all")
    if normalised[0] < 0:
        raise FaultInjectionError("rack indices must be non-negative")
    return normalised


class FaultSpec:
    """Base class for one declarative fault.

    Concrete specs are frozen dataclasses carrying ``start_s``/``end_s``
    (or ``at_s`` for one-shots) plus a ``racks`` tuple (``None`` = every
    rack). ``kind`` is the stable label used in :class:`FaultEvent`
    streams, journals and reports.
    """

    kind: ClassVar[str] = "fault"
    #: One-shot faults fire once at ``at_s`` and never clear.
    one_shot: ClassVar[bool] = False

    def active_at(self, time_s: float) -> bool:
        """Whether the fault is in force at ``time_s``."""
        if self.one_shot:
            return time_s >= self.at_s  # type: ignore[attr-defined]
        return self.start_s <= time_s < self.end_s  # type: ignore[attr-defined]

    def rack_tuple(self, racks: int) -> "tuple[int, ...]":
        """The concrete racks this spec touches in an ``racks``-wide cluster."""
        if self.racks is None:  # type: ignore[attr-defined]
            return tuple(range(racks))
        return self.racks  # type: ignore[attr-defined]

    def validate_for(self, racks: int) -> None:
        """Check the spec fits a cluster of ``racks`` racks."""
        targeted = self.racks  # type: ignore[attr-defined]
        if targeted is not None and targeted[-1] >= racks:
            raise FaultInjectionError(
                f"{self.kind}: rack {targeted[-1]} outside a "
                f"{racks}-rack cluster"
            )

    def _check_window(self) -> None:
        if self.one_shot:
            if self.at_s < 0.0:  # type: ignore[attr-defined]
                raise FaultInjectionError(f"{self.kind}: at_s must be >= 0")
            return
        start = self.start_s  # type: ignore[attr-defined]
        end = self.end_s  # type: ignore[attr-defined]
        if not end > start:
            raise FaultInjectionError(
                f"{self.kind}: fault window must satisfy end_s > start_s"
            )


@dataclass(frozen=True)
class TelemetryDropout(FaultSpec):
    """Power-meter readings stop arriving for the targeted racks.

    The defense layer's :class:`~repro.defense.telemetry.TelemetryView`
    holds the last value; once the TTL expires the schemes fail safe.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        racks: Affected racks, ``None`` for a full blackout.
    """

    kind: ClassVar[str] = "telemetry-dropout"

    start_s: float
    end_s: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "racks", _normalised_racks(self.racks))
        self._check_window()


@dataclass(frozen=True)
class TelemetryNoise(FaultSpec):
    """Gaussian noise on the metered rack averages (flaky sensors).

    Noise is drawn from an RNG seeded by the plan seed and the spec's
    position, so it is identical run-to-run and backend-to-backend.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        sigma_w: Noise standard deviation in watts.
        racks: Affected racks, ``None`` for all.
    """

    kind: ClassVar[str] = "telemetry-noise"

    start_s: float
    end_s: float
    sigma_w: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "racks", _normalised_racks(self.racks))
        self._check_window()
        if self.sigma_w <= 0.0:
            raise FaultInjectionError("telemetry-noise: sigma_w must be > 0")


@dataclass(frozen=True)
class SocBias(FaultSpec):
    """The SOC sensor reads offset by ``bias`` (drifted calibration).

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        bias: Added to the sensed SOC; the result clips to ``[0, 1]``.
        racks: Affected racks, ``None`` for all.
    """

    kind: ClassVar[str] = "soc-bias"

    start_s: float
    end_s: float
    bias: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "racks", _normalised_racks(self.racks))
        self._check_window()
        if not -1.0 <= self.bias <= 1.0:
            raise FaultInjectionError("soc-bias: bias must be in [-1, 1]")


@dataclass(frozen=True)
class SocFreeze(FaultSpec):
    """The SOC sensor freezes at whatever it read when the fault began.

    The classic stuck-sensor failure: the controller keeps allocating
    from a reading that no longer moves.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        racks: Affected racks, ``None`` for all.
    """

    kind: ClassVar[str] = "soc-freeze"

    start_s: float
    end_s: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "racks", _normalised_racks(self.racks))
        self._check_window()


@dataclass(frozen=True)
class VdebCommLoss(FaultSpec):
    """The vDEB controller loses its link to the targeted racks.

    Unreachable racks get no pool-duty allocation and keep their last
    soft limit; their local hardware (battery, supercap, breaker) keeps
    acting on real electrical state.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        racks: Unreachable racks, ``None`` for a total controller outage.
    """

    kind: ClassVar[str] = "vdeb-comm-loss"

    start_s: float
    end_s: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "racks", _normalised_racks(self.racks))
        self._check_window()


@dataclass(frozen=True)
class BatteryFade(FaultSpec):
    """One-shot permanent capacity loss (string damage, dead cell).

    Fires once at ``at_s``; the fleet's capacity shrinks by ``fade`` and
    any charge above the new caps is lost. Never "clears" — damage is
    physical.

    Attributes:
        at_s: The instant the damage lands.
        fade: Fraction of current capacity lost, in ``[0, 1)``.
        racks: Damaged racks, ``None`` for all.
    """

    kind: ClassVar[str] = "battery-fade"
    one_shot: ClassVar[bool] = True

    at_s: float
    fade: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "racks", _normalised_racks(self.racks))
        self._check_window()
        if not 0.0 < self.fade < 1.0:
            raise FaultInjectionError("battery-fade: fade must be in (0, 1)")

    @classmethod
    def dead_string(
        cls, at_s: float, racks: "tuple[int, ...]", strings: int = 4
    ) -> "BatteryFade":
        """A dead cell takes one of ``strings`` series strings offline."""
        if strings <= 1:
            raise FaultInjectionError("dead_string needs strings >= 2")
        return cls(at_s=at_s, fade=1.0 / strings, racks=racks)


@dataclass(frozen=True)
class UdebStuckOpen(FaultSpec):
    """The uDEB ORing FET fails open: no shaving, spikes hit the feed.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        racks: Affected racks, ``None`` for all.
    """

    kind: ClassVar[str] = "udeb-stuck-open"

    start_s: float
    end_s: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "racks", _normalised_racks(self.racks))
        self._check_window()


@dataclass(frozen=True)
class BreakerMisrating(FaultSpec):
    """Breakers enforce ``factor`` times their nominal rating.

    Models mis-commissioned or drifted protection: ``factor < 1`` trips
    early on legitimate load, ``factor > 1`` lets real overloads ride.
    Overload *detection* (the effective-attack metric) keeps using the
    nominal rating — the fault is in the protection hardware, not in
    what counts as an attack.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        factor: Multiplier on the nominal trip rating, in ``(0, 4]``.
        racks: Affected rack breakers; ``None`` means every rack breaker
            *and* the cluster PDU breaker.
    """

    kind: ClassVar[str] = "breaker-misrating"

    start_s: float
    end_s: float
    factor: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "racks", _normalised_racks(self.racks))
        self._check_window()
        if not 0.0 < self.factor <= 4.0:
            raise FaultInjectionError(
                "breaker-misrating: factor must be in (0, 4]"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated, picklable collection of fault specs.

    Spec order is semantic: fault events publish in spec order within a
    step, and the noise RNG streams key on spec position.

    Attributes:
        specs: The fault specs, applied in order.
        seed: Base seed for the plan's random streams (noise); ``None``
            defers to the simulation's configured seed.
    """

    specs: "tuple[FaultSpec, ...]" = field(default=())
    seed: "int | None" = None

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise FaultInjectionError(
                    f"fault plan entries must be FaultSpecs, got {spec!r}"
                )
        reject_overlapping_windows(specs, "fault plan")
        object.__setattr__(self, "specs", specs)

    def __len__(self) -> int:
        return len(self.specs)

    def validate_for(self, racks: int) -> None:
        """Check every spec fits a cluster of ``racks`` racks."""
        for spec in self.specs:
            spec.validate_for(racks)

    def windows(self) -> "list[tuple[float, float]]":
        """The windowed specs' ``(start_s, end_s)`` pairs, in spec order.

        One-shot specs are excluded — they have no duration. Used by the
        runner to refine the step schedule around fault activity, the
        same way attack windows are.
        """
        return [
            (spec.start_s, spec.end_s)  # type: ignore[attr-defined]
            for spec in self.specs
            if not spec.one_shot
        ]
