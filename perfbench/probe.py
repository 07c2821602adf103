"""Machine-speed probe: a fixed loop, timed at short intervals during a pass.

The benchmark runs on a few cores of a shared host. Other tenants slow
the same code down by up to about 2x, in swings that last from seconds
to minutes, so raw pass times spread far more from run to run than any
useful regression bound. :class:`SpeedProbe` measures that slowdown
where it happens: while a pass runs, an interval timer interrupts it
every :data:`PROBE_INTERVAL_S` and times :func:`probe_loop`, a fixed
mix of interpreter work and small-array numpy calls that is independent
of the library. The probe's own time is taken out of the pass, and the
rest is rescaled to a machine on which the loop takes
:data:`REFERENCE_PROBE_S`::

    ref_s = (elapsed - probe_time) * REFERENCE_PROBE_S / mean_probe_loop

A change to the library moves ``ref_s`` exactly as it moves the raw
time; a tenant that slows both the pass and the loop moves neither. The
probes sample the same moments the pass runs (a signal handler runs in
the main thread between bytecodes), which is what lets the two track:
probes taken only before and after a multi-second pass do not.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Iterations of :func:`probe_loop` per probe (a few milliseconds).
PROBE_ITERATIONS = 1000

#: Seconds between probes while a pass runs (about 5 % of the pass).
PROBE_INTERVAL_S = 0.05

#: Probe-loop seconds of the machine that rescaled times refer to.
REFERENCE_PROBE_S = 0.002

_SEED_STATE = np.linspace(0.0, 1.0, 64)


def probe_loop() -> float:
    """The fixed unit of work whose time measures the machine's speed."""
    state = _SEED_STATE.copy()
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        state = state * 0.999 + 0.001
        total += float(state[i & 63]) + (i % 7)
    return total


class SpeedProbe:
    """Probes the machine's speed while a block runs.

    Use as a context manager around exactly the timed region; afterwards
    :meth:`rescale` turns the region's elapsed seconds into reference
    seconds. One probe runs on entry and one on exit, so even a region
    shorter than the interval has a speed sample.
    """

    def __init__(self) -> None:
        self.probes = 0
        self.probe_s = 0.0
        self._previous = None

    def _probe(self, *_signal) -> None:
        start = time.perf_counter()
        probe_loop()
        self.probe_s += time.perf_counter() - start
        self.probes += 1

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    @property
    def loop_s(self) -> float:
        """Mean seconds of one probe loop during the region."""
        return self.probe_s / self.probes

    def work_s(self, elapsed: float) -> float:
        """Host seconds of the region's own work (probes taken out)."""
        return elapsed - self.probe_s

    def rescale(self, elapsed: float) -> float:
        """The region's own work in reference seconds."""
        return self.work_s(elapsed) * REFERENCE_PROBE_S / self.loop_s
