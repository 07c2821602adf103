"""Machine-utilisation traces: the simulator's workload representation.

A :class:`UtilizationTrace` is a dense ``(timestamps, machines)`` matrix of
CPU utilisation in ``[0, 1]`` at a fixed sampling interval — exactly what
falls out of the paper's processing of the Google trace ("we use machine ID
as the identifier and calculate the total CPU power demand belonging to a
given machine at the same timestamp"). It supports the operations the
experiments need: building from task lists, slicing time windows,
resampling, and per-timestamp iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import TraceFormatError
from .task import Task


@dataclass(frozen=True)
class TraceSlice:
    """One timestamp of a trace.

    Attributes:
        time_s: Sample time (start of the interval).
        utilisation: Per-machine CPU utilisation, shape ``(machines,)``.
    """

    time_s: float
    utilisation: np.ndarray


class UtilizationTrace:
    """A fixed-interval machine-utilisation matrix.

    Args:
        utilisation: Array of shape ``(timestamps, machines)`` in [0, 1].
        interval_s: Sampling interval.
        start_s: Time of the first sample.
    """

    def __init__(
        self,
        utilisation: np.ndarray,
        interval_s: float,
        start_s: float = 0.0,
    ) -> None:
        matrix = np.asarray(utilisation, dtype=float)
        if matrix.ndim != 2 or matrix.size == 0:
            raise TraceFormatError("utilisation must be a non-empty 2-D matrix")
        if interval_s <= 0.0:
            raise TraceFormatError("interval must be positive")
        if np.any(matrix < -1e-9) or np.any(matrix > 1.0 + 1e-9):
            raise TraceFormatError("utilisation values must lie in [0, 1]")
        self._matrix = np.clip(matrix, 0.0, 1.0)
        self._interval_s = float(interval_s)
        self._start_s = float(start_s)

    # ------------------------------------------------------------------ #
    # Construction                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_tasks(
        cls,
        tasks: "list[Task]",
        machines: int,
        interval_s: float,
        duration_s: "float | None" = None,
        clip_overload: bool = True,
    ) -> "UtilizationTrace":
        """Rasterise placed tasks into a utilisation matrix.

        Each task contributes its ``cpu_rate`` to its machine for every
        interval it overlaps, weighted by the overlap fraction.

        Args:
            tasks: Placed tasks (``machine_id`` set on every task).
            machines: Number of machine columns.
            interval_s: Output sampling interval.
            duration_s: Trace length; defaults to the latest task end.
            clip_overload: Clip aggregate demand above 1.0 per machine
                (machines cannot run past full utilisation). When False,
                overload raises instead — useful to catch scheduler bugs.
        """
        if machines <= 0:
            raise TraceFormatError("need at least one machine")
        if not tasks:
            raise TraceFormatError("need at least one task")
        end = duration_s if duration_s is not None else max(t.end_s for t in tasks)
        if end <= 0.0:
            raise TraceFormatError("trace duration must be positive")
        steps = max(1, int(math.ceil(end / interval_s)))
        matrix = np.zeros((steps, machines))
        for task in tasks:
            if task.machine_id is None:
                raise TraceFormatError(
                    f"task {task.job_id}/{task.task_index} is unplaced"
                )
            if task.machine_id >= machines:
                raise TraceFormatError(
                    f"task {task.job_id}/{task.task_index} on machine "
                    f"{task.machine_id} >= {machines}"
                )
            first = int(task.start_s // interval_s)
            last = min(steps - 1, int((task.end_s - 1e-9) // interval_s))
            for idx in range(first, last + 1):
                slot_start = idx * interval_s
                slot_end = slot_start + interval_s
                overlap = min(task.end_s, slot_end) - max(task.start_s, slot_start)
                if overlap > 0.0:
                    matrix[idx, task.machine_id] += (
                        task.cpu_rate * overlap / interval_s
                    )
        if clip_overload:
            matrix = np.clip(matrix, 0.0, 1.0)
        elif np.any(matrix > 1.0 + 1e-9):
            raise TraceFormatError("aggregate task demand exceeds machine capacity")
        return cls(matrix, interval_s=interval_s)

    # ------------------------------------------------------------------ #
    # Properties                                                          #
    # ------------------------------------------------------------------ #

    @property
    def matrix(self) -> np.ndarray:
        """The full ``(timestamps, machines)`` matrix (read-only view)."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    @property
    def timestamps(self) -> int:
        """Number of samples."""
        return self._matrix.shape[0]

    @property
    def machines(self) -> int:
        """Number of machine columns."""
        return self._matrix.shape[1]

    @property
    def interval_s(self) -> float:
        """Sampling interval in seconds."""
        return self._interval_s

    @property
    def start_s(self) -> float:
        """Time of the first sample."""
        return self._start_s

    @property
    def duration_s(self) -> float:
        """Covered time span in seconds."""
        return self.timestamps * self._interval_s

    @property
    def end_s(self) -> float:
        """Time just past the final sample."""
        return self._start_s + self.duration_s

    def mean_utilisation(self) -> float:
        """Grand mean utilisation across machines and time."""
        return float(np.mean(self._matrix))

    # ------------------------------------------------------------------ #
    # Access                                                              #
    # ------------------------------------------------------------------ #

    def at(self, time_s: float) -> np.ndarray:
        """Per-machine utilisation at ``time_s`` (zero-order hold).

        Times before the trace return the first sample; times at or past
        the end return the last (the simulator may run slightly beyond).
        """
        idx = int((time_s - self._start_s) // self._interval_s)
        idx = min(max(idx, 0), self.timestamps - 1)
        return self._matrix[idx]

    def constant_until(self, time_s: float) -> float:
        """Time until which :meth:`at` keeps returning the same sample.

        Past the final sample the trace holds forever, so the bound is
        ``inf`` there. Used by the cohort freeze guard to end a freeze
        at the next workload change.
        """
        idx = int((time_s - self._start_s) // self._interval_s)
        idx = min(max(idx, 0), self.timestamps - 1)
        if idx == self.timestamps - 1:
            return float("inf")
        return self._start_s + (idx + 1) * self._interval_s

    def slices(self) -> "list[TraceSlice]":
        """All samples as :class:`TraceSlice` records."""
        return [
            TraceSlice(
                time_s=self._start_s + i * self._interval_s,
                utilisation=self._matrix[i],
            )
            for i in range(self.timestamps)
        ]

    def window(self, start_s: float, end_s: float) -> "UtilizationTrace":
        """Sub-trace covering ``[start_s, end_s)``.

        Raises:
            TraceFormatError: if the window is empty or outside the trace.
        """
        if end_s <= start_s:
            raise TraceFormatError("window end must be after start")
        first = int((start_s - self._start_s) // self._interval_s)
        last = int(math.ceil((end_s - self._start_s) / self._interval_s))
        if first < 0 or last > self.timestamps or first >= last:
            raise TraceFormatError(
                f"window [{start_s}, {end_s}) outside trace "
                f"[{self._start_s}, {self.end_s})"
            )
        return UtilizationTrace(
            self._matrix[first:last].copy(),
            interval_s=self._interval_s,
            start_s=self._start_s + first * self._interval_s,
        )

    def resample(self, interval_s: float) -> "UtilizationTrace":
        """Return a copy resampled to a coarser or finer interval.

        Coarsening averages whole groups of samples; refining repeats
        samples (zero-order hold). The target must be an integer multiple
        or divisor of the current interval.
        """
        if interval_s <= 0.0:
            raise TraceFormatError("interval must be positive")
        ratio = interval_s / self._interval_s
        if ratio >= 1.0:
            factor = int(round(ratio))
            if not math.isclose(factor, ratio):
                raise TraceFormatError(
                    "coarser interval must be an integer multiple"
                )
            whole = (self.timestamps // factor) * factor
            if whole == 0:
                raise TraceFormatError("trace too short to resample")
            grouped = self._matrix[:whole].reshape(-1, factor, self.machines)
            return UtilizationTrace(
                grouped.mean(axis=1), interval_s=interval_s, start_s=self._start_s
            )
        factor = int(round(1.0 / ratio))
        if not math.isclose(self._interval_s / factor, interval_s):
            raise TraceFormatError("finer interval must be an integer divisor")
        repeated = np.repeat(self._matrix, factor, axis=0)
        return UtilizationTrace(
            repeated, interval_s=interval_s, start_s=self._start_s
        )

    def with_added(self, delta: np.ndarray) -> "UtilizationTrace":
        """Return a copy with ``delta`` added and re-clipped to [0, 1].

        Used to inject extra load (e.g. a cluster-wide surge) on top of a
        base trace.
        """
        if delta.shape != self._matrix.shape:
            raise TraceFormatError(
                f"delta shape {delta.shape} != trace shape {self._matrix.shape}"
            )
        return UtilizationTrace(
            np.clip(self._matrix + delta, 0.0, 1.0),
            interval_s=self._interval_s,
            start_s=self._start_s,
        )
