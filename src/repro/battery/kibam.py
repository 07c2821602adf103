"""Kinetic battery model (KiBaM) — the paper's battery physics (§5, [32]).

KiBaM models a battery as two wells of charge:

* an *available* well (fraction ``c`` of capacity) that feeds the load
  directly, and
* a *bound* well (fraction ``1 - c``) that trickles into the available well
  at a rate proportional to the head difference, with rate constant ``k``.

This captures the two lead-acid behaviours the paper's attack exploits:
high-rate discharge exhausts the available well long before the bound
charge is gone (apparent capacity shrinks under load), and a rested battery
*recovers* some deliverable charge as bound energy migrates over.

We work in power/energy units (W, J): the "current" of the classic
formulation is the power draw ``P`` and charge is energy. ``k`` is the
*effective* rate constant (the ``k' = k / (c (1 - c))`` of Manwell &
McGowan is folded in), so the closed-form constant-power step update is::

    y1' = y1 e + (y0 k c - P)(1 - e) / k - P c (k dt - 1 + e) / k
    y2' = y2 e + y0 (1 - c)(1 - e) + ... (symmetric)

with ``e = exp(-k dt)`` and ``y0 = y1 + y2``. Total charge obeys exact
conservation: ``y1' + y2' = y0 - P dt``.
"""

from __future__ import annotations

import math

from ..errors import BatteryError
from ..units import fraction
from .pack import check_step_args


class KiBaMBattery:
    """Two-well kinetic battery with closed-form constant-power steps.

    The battery is *empty for load purposes* when the available well runs
    dry, even though bound charge remains — exactly the "temporarily
    unavailable" state the paper's Phase-I attack drives racks into.

    Args:
        capacity_j: Total charge capacity (both wells) in joules.
        c: Fraction of capacity held in the available well, in ``(0, 1]``.
        k: Effective rate constant in 1/s.
        initial_soc: Starting total state of charge in ``[0, 1]``; the
            charge is split ``c : 1 - c`` between the wells (equal heads).
    """

    def __init__(
        self,
        capacity_j: float,
        c: float = 0.75,
        k: float = 0.0015,
        initial_soc: float = 1.0,
    ) -> None:
        if capacity_j <= 0.0:
            raise BatteryError("capacity must be positive")
        if not 0.0 < c <= 1.0:
            raise BatteryError("KiBaM c must be in (0, 1]")
        if k <= 0.0:
            raise BatteryError("KiBaM k must be positive")
        if not 0.0 <= initial_soc <= 1.0:
            raise BatteryError("initial SOC must be in [0, 1]")
        self._capacity_j = capacity_j
        self._c = c
        self._k = k
        self._initial_soc = initial_soc
        self._y1 = 0.0
        self._y2 = 0.0
        self.reset()

    # ------------------------------------------------------------------ #
    # State inspection                                                    #
    # ------------------------------------------------------------------ #

    @property
    def capacity_j(self) -> float:
        """Total (two-well) capacity in joules."""
        return self._capacity_j

    @property
    def charge_j(self) -> float:
        """Total stored charge (both wells) in joules."""
        return self._y1 + self._y2

    @property
    def available_j(self) -> float:
        """Charge in the available well — what the load can actually see."""
        return self._y1

    @property
    def bound_j(self) -> float:
        """Charge in the bound well, not immediately deliverable."""
        return self._y2

    @property
    def soc(self) -> float:
        """Total state of charge in ``[0, 1]``."""
        return fraction(self.charge_j, self._capacity_j)

    @property
    def is_exhausted(self) -> bool:
        """True when the available well is (numerically) empty."""
        return self._y1 <= 1e-9

    # ------------------------------------------------------------------ #
    # Physics                                                             #
    # ------------------------------------------------------------------ #

    def _step_coefficients(self, dt: float) -> tuple[float, float, float]:
        """Return ``(e, A, B)`` so that ``y1(dt) = A - B * P`` for draw P."""
        k = self._k
        e = math.exp(-k * dt)
        y0 = self._y1 + self._y2
        coeff_a = self._y1 * e + y0 * self._c * (1.0 - e)
        coeff_b = (1.0 - e) / k + self._c * (k * dt - 1.0 + e) / k
        return e, coeff_a, coeff_b

    def max_discharge_power(self, dt: float) -> float:
        """Largest constant power sustainable for ``dt`` without emptying y1.

        ``y1`` after the step is linear in the draw ``P``; the limit is the
        draw that lands ``y1`` exactly at zero.
        """
        check_step_args(0.0, dt)
        _, coeff_a, coeff_b = self._step_coefficients(dt)
        if coeff_b <= 0.0:
            return 0.0
        return max(0.0, coeff_a / coeff_b)

    def max_charge_power(self, dt: float) -> float:
        """Largest constant charge power that keeps both wells within caps.

        Conservative bound based on total-charge headroom; the available
        well is additionally clipped at its cap after each step.
        """
        check_step_args(0.0, dt)
        headroom_j = self._capacity_j - self.charge_j
        return max(0.0, headroom_j / dt)

    def _apply_step(self, power_w: float, dt: float) -> None:
        """Advance both wells under signed draw ``power_w`` (>0 discharge)."""
        k, c = self._k, self._c
        e = math.exp(-k * dt)
        y0 = self._y1 + self._y2
        shape = (k * dt - 1.0 + e) / k
        y1_new = (
            self._y1 * e
            + (y0 * k * c - power_w) * (1.0 - e) / k
            - power_w * c * shape
        )
        y2_new = (
            self._y2 * e
            + y0 * (1.0 - c) * (1.0 - e)
            - power_w * (1.0 - c) * shape
        )
        # Clip to physical bounds; conservation holds analytically, clipping
        # only corrects floating-point residue and charge overfill.
        self._y1 = min(max(y1_new, 0.0), self._c * self._capacity_j)
        self._y2 = min(max(y2_new, 0.0), (1.0 - self._c) * self._capacity_j)

    def discharge(self, power_w: float, dt: float) -> float:
        """Draw up to ``power_w`` for ``dt`` seconds; return power delivered."""
        check_step_args(power_w, dt)
        delivered = min(power_w, self.max_discharge_power(dt))
        if delivered <= 0.0:
            # Even at zero external draw the wells still equalise.
            self._apply_step(0.0, dt)
            return 0.0
        self._apply_step(delivered, dt)
        return delivered

    def charge(self, power_w: float, dt: float) -> float:
        """Push up to ``power_w`` for ``dt`` seconds; return power stored.

        Charge acceptance declines as the available well approaches its
        cap (the classic tapering of lead-acid charging); the returned
        power reflects the energy actually stored, so callers see exact
        conservation.
        """
        check_step_args(power_w, dt)
        requested = min(power_w, self.max_charge_power(dt))
        before = self.charge_j
        self._apply_step(-requested, dt)
        return (self.charge_j - before) / dt

    def rest(self, dt: float) -> None:
        """Let the battery sit idle for ``dt`` seconds (charge recovery)."""
        check_step_args(0.0, dt)
        self._apply_step(0.0, dt)

    def apply_capacity_fade(self, fade: float) -> None:
        """Permanently lose ``fade`` of the *current* capacity.

        Models string-level damage (sulfation, a dead cell taking its
        series string offline): both wells shrink proportionally and any
        charge above the new caps is lost. The damage survives
        :meth:`reset` — a reset refills the *faded* pack.
        """
        if not 0.0 <= fade < 1.0:
            raise BatteryError(f"capacity fade must be in [0, 1), got {fade}")
        if fade <= 0.0:
            return
        self._capacity_j *= 1.0 - fade
        self._y1 = min(self._y1, self._c * self._capacity_j)
        self._y2 = min(self._y2, (1.0 - self._c) * self._capacity_j)

    def ff_state(self) -> "dict[str, float]":
        """Evolving state for the cohort freeze fingerprint.

        Everything the closed-form step depends on: both wells plus the
        (fade-mutable) capacity. Bitwise equality of two fingerprints
        implies bitwise-identical future steps under identical draws.
        """
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
