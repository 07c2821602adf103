"""Detection layer: visible-peak identification and spike detectability.

Two distinct questions live here:

* **Visible peaks (the VP policy input).** Sustained over-budget demand is
  plainly visible to interval metering; :class:`VisiblePeakDetector` flags
  racks whose metered average exceeds their soft limit.
* **Hidden spikes (paper Table I).** Whether a sub-second burst is
  detectable at all depends on the metering interval: the burst's energy
  is diluted into the interval average, and benign load noise drowns small
  residues. :class:`AnomalyDetector` models exactly that — an
  exponentially weighted baseline, a relative detection margin, and
  Gaussian measurement/load noise — and is the instrument behind the
  detection-rate table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import MeterConfig
from ..errors import ConfigError
from ..power.meter import MeterSample
from ..rng import child_rng

#: Smoothing factor of the detector's baseline estimate. Slow on purpose:
#: operators baseline against history, not against the last interval.
_BASELINE_ALPHA = 0.2


@dataclass(frozen=True)
class VisiblePeakReport:
    """Per-update result of the visible-peak detector.

    Attributes:
        over_limit: Boolean per-rack mask of metered averages above limit.
        margin_w: Per-rack metered average minus the limit (signed).
    """

    over_limit: np.ndarray
    margin_w: np.ndarray

    @property
    def any_peak(self) -> bool:
        """True when any rack shows a visible peak (the VP>0 input)."""
        return bool(self.over_limit.any())


class VisiblePeakDetector:
    """Flags racks whose *metered* demand exceeds their soft limit.

    Args:
        margin: Relative tolerance above the limit before flagging
            (avoids chattering on measurement noise).
    """

    def __init__(self, margin: float = 0.0) -> None:
        if margin < 0.0:
            raise ConfigError("margin must be non-negative")
        self._margin = margin

    def evaluate(
        self, metered_avg_w: np.ndarray, soft_limits_w: np.ndarray
    ) -> VisiblePeakReport:
        """Compare metered rack averages against (1 + margin) x limits."""
        avg = np.asarray(metered_avg_w, dtype=float)
        limits = np.asarray(soft_limits_w, dtype=float)
        if avg.shape != limits.shape:
            raise ConfigError("metered averages and limits must align")
        threshold = limits * (1.0 + self._margin)
        return VisiblePeakReport(
            over_limit=avg > threshold, margin_w=avg - threshold
        )


class AnomalyDetector:
    """Interval-average anomaly detection with a learned baseline.

    Feed every completed :class:`~repro.power.meter.MeterSample`; the
    detector keeps an EWMA baseline of *normal-looking* intervals and
    flags a sample when its (noisy) average rises more than
    ``detection_margin`` above that baseline.

    Args:
        config: Metering parameters (margin, noise level).
        seed: Noise determinism seed.
    """

    def __init__(self, config: MeterConfig, seed: "int | None" = None) -> None:
        self._config = config
        self._rng = child_rng(seed, "anomaly-detector")
        self._baseline_w: "float | None" = None
        self._flagged: list[MeterSample] = []

    @property
    def baseline_w(self) -> "float | None":
        """Current learned baseline, ``None`` before the first sample."""
        return self._baseline_w

    @property
    def flagged(self) -> "list[MeterSample]":
        """Samples flagged as anomalous so far."""
        return list(self._flagged)

    def observe(self, sample: MeterSample) -> bool:
        """Ingest one interval; returns True if it looks anomalous."""
        noisy_avg = sample.average_w
        if self._config.noise_std > 0.0 and noisy_avg > 0.0:
            noisy_avg *= 1.0 + float(
                self._rng.normal(0.0, self._config.noise_std)
            )
        if self._baseline_w is None:
            self._baseline_w = noisy_avg
            return False
        threshold = self._baseline_w * (1.0 + self._config.detection_margin)
        anomalous = noisy_avg > threshold
        if anomalous:
            self._flagged.append(sample)
        else:
            self._baseline_w += _BASELINE_ALPHA * (noisy_avg - self._baseline_w)
        return anomalous

    def reset(self) -> None:
        """Forget the baseline and the flag history."""
        self._baseline_w = None
        self._flagged.clear()


def detection_rate(
    spike_times_s: "list[float]",
    flagged_samples: "list[MeterSample]",
) -> float:
    """Fraction of spikes whose covering metering interval was flagged.

    This is the Table-I metric: a spike counts as detected if *its*
    interval raised an anomaly, regardless of which spike inside the
    interval caused it.
    """
    if not spike_times_s:
        raise ConfigError("need at least one spike to rate detection")
    detected = 0
    for t in spike_times_s:
        if any(s.start_s <= t < s.end_s for s in flagged_samples):
            detected += 1
    return detected / len(spike_times_s)
