"""Time-series recording for simulation runs.

A :class:`Recorder` collects named per-step channels (floats or small
vectors) and hands them back as numpy arrays, with CSV export for the
experiment harnesses. Channels are declared implicitly on first append;
every channel must then be appended exactly once per step, which catches
desynchronised instrumentation early.

Storage is preallocated: each channel owns a capacity-doubling numpy
buffer (1-D for scalars, 2-D for vectors), so appends are O(1) amortised
with no per-step Python-list or per-sample allocation.
:meth:`Recorder.as_array` exposes the filled prefix as a zero-copy view.
The reading API (``series``/``matrix``/``check_aligned``/``to_csv``) is
unchanged from the list-backed recorder, so experiment and figure code is
untouched.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from ..errors import SimulationError

#: Initial buffer capacity (rows) for a freshly declared channel.
_INITIAL_CAPACITY = 256


class _Decimation:
    """Shared offered-sample gating for row-budgeted buffers.

    Every buffer of a row-budgeted recorder counts the samples *offered*
    to it and stores only every ``stride``-th one. When a buffer fills its
    row budget it is decimated in place — every other retained row dropped
    and the stride doubled — so the kept rows always form a uniform
    subsample of the offered sequence (offered indices ``0, s, 2s, ...``).
    Because channels are appended in lockstep (one sample per channel per
    recorded step), every buffer's counters evolve identically and the
    channels stay step-aligned through any number of decimations.
    """

    __slots__ = ("offered", "stride", "budget")

    def __init__(self, budget: "int | None") -> None:
        if budget is not None and budget < 2:
            raise SimulationError("row budget must be at least 2")
        self.offered = 0
        self.stride = 1
        self.budget = budget

    def admit(self) -> bool:
        """Account one offered sample; True when it should be stored."""
        offered = self.offered
        self.offered = offered + 1
        return offered % self.stride == 0

    def still_due(self) -> bool:
        """Whether the sample just admitted survives a doubled stride."""
        return (self.offered - 1) % self.stride == 0


class _ScalarBuffer:
    """Capacity-doubling 1-D float buffer with optional row budget."""

    __slots__ = ("data", "count", "gate")

    def __init__(self, budget: "int | None" = None) -> None:
        self.data = np.empty(_INITIAL_CAPACITY, dtype=float)
        self.count = 0
        self.gate = _Decimation(budget)

    def _grow_to(self, needed: int) -> None:
        capacity = self.data.shape[0]
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=float)
        grown[: self.count] = self.data[: self.count]
        self.data = grown

    def _decimate(self) -> None:
        kept = self.data[: self.count : 2].copy()
        self.data[: kept.shape[0]] = kept
        self.count = kept.shape[0]
        self.gate.stride *= 2

    def append(self, value: float) -> None:
        gate = self.gate
        if not gate.admit():
            return
        if gate.budget is not None and self.count >= gate.budget:
            self._decimate()
            if not gate.still_due():
                return
        if self.count == self.data.shape[0]:
            self._grow_to(self.count + 1)
        self.data[self.count] = value
        self.count += 1

    def extend(self, values: np.ndarray) -> None:
        gate = self.gate
        if gate.budget is not None or gate.stride != 1:
            for value in values:
                self.append(float(value))
            return
        n = values.shape[0]
        if self.count + n > self.data.shape[0]:
            self._grow_to(self.count + n)
        self.data[self.count : self.count + n] = values
        self.count += n
        gate.offered += n

    def view(self) -> np.ndarray:
        out = self.data[: self.count]
        out.flags.writeable = False
        return out


class _VectorBuffer:
    """Capacity-doubling ``(rows, width)`` buffer with optional row budget."""

    __slots__ = ("data", "count", "gate")

    def __init__(self, width: int, budget: "int | None" = None) -> None:
        self.data = np.empty((_INITIAL_CAPACITY, width), dtype=float)
        self.count = 0
        self.gate = _Decimation(budget)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def _grow_to(self, needed: int) -> None:
        capacity = self.data.shape[0]
        while capacity < needed:
            capacity *= 2
        grown = np.empty((capacity, self.width), dtype=float)
        grown[: self.count] = self.data[: self.count]
        self.data = grown

    def _decimate(self) -> None:
        kept = self.data[: self.count : 2].copy()
        self.data[: kept.shape[0]] = kept
        self.count = kept.shape[0]
        self.gate.stride *= 2

    def append(self, value: np.ndarray) -> None:
        if value.shape != (self.width,):
            raise SimulationError(
                f"vector sample shape {value.shape} != ({self.width},)"
            )
        gate = self.gate
        if not gate.admit():
            return
        if gate.budget is not None and self.count >= gate.budget:
            self._decimate()
            if not gate.still_due():
                return
        if self.count == self.data.shape[0]:
            self._grow_to(self.count + 1)
        self.data[self.count] = value
        self.count += 1

    def extend(self, values: np.ndarray) -> None:
        if values.ndim != 2 or values.shape[1] != self.width:
            raise SimulationError(
                f"vector block shape {values.shape} incompatible with "
                f"width {self.width}"
            )
        gate = self.gate
        if gate.budget is not None or gate.stride != 1:
            for row in values:
                self.append(row)
            return
        n = values.shape[0]
        if self.count + n > self.data.shape[0]:
            self._grow_to(self.count + n)
        self.data[self.count : self.count + n] = values
        self.count += n
        gate.offered += n

    def view(self) -> np.ndarray:
        out = self.data[: self.count]
        out.flags.writeable = False
        return out


class Recorder:
    """Append-only, step-aligned channel store on preallocated buffers.

    Args:
        row_budget: Optional bound (>= 2) on the retained rows per
            channel. A full channel is decimated in place — every other
            row dropped, sampling stride doubled — so memory stays
            constant while the kept rows remain a uniform subsample of
            the offered sequence. ``None`` retains every offered row.
    """

    def __init__(self, row_budget: "int | None" = None) -> None:
        if row_budget is not None and row_budget < 2:
            raise SimulationError("row budget must be at least 2")
        self._row_budget = row_budget
        self._channels: "dict[str, _ScalarBuffer]" = {}
        self._vector_channels: "dict[str, _VectorBuffer]" = {}

    @property
    def row_budget(self) -> "int | None":
        """The configured per-channel row bound (``None`` = unbounded)."""
        return self._row_budget

    @property
    def stride(self) -> int:
        """Current downsampling stride (1 until a budget decimation)."""
        for buffer in self._channels.values():
            return buffer.gate.stride
        for vbuffer in self._vector_channels.values():
            return vbuffer.gate.stride
        return 1

    # ------------------------------------------------------------------ #
    # Writing                                                             #
    # ------------------------------------------------------------------ #

    def append(self, channel: str, value: float) -> None:
        """Append one scalar sample to ``channel``."""
        buffer = self._channels.get(channel)
        if buffer is None:
            buffer = self._channels[channel] = _ScalarBuffer(
                self._row_budget
            )
        buffer.append(float(value))

    def append_vector(
        self, channel: str, value: np.ndarray, copy: bool = True
    ) -> None:
        """Append one vector sample (e.g. per-rack SOC) to ``channel``.

        Args:
            channel: Vector channel name.
            value: The sample; one entry per lane.
            copy: With ``True`` (the default) the sample is coerced to a
                float array before being written into the channel buffer —
                safe for any array-like. Callers that already hold a fresh
                ``float64`` vector from a vectorized kernel may pass
                ``copy=False`` to skip the coercion; the value is written
                straight into the preallocated buffer (the recorder never
                aliases caller memory either way).
        """
        if copy:
            value = np.asarray(value, dtype=float)
        buffer = self._vector_channels.get(channel)
        if buffer is None:
            if value.ndim != 1:
                raise SimulationError("vector samples must be 1-D")
            buffer = self._vector_channels[channel] = _VectorBuffer(
                value.shape[0], self._row_budget
            )
        buffer.append(value)

    def append_row(self, **values: float) -> None:
        """Append several scalar channels at once."""
        for channel, value in values.items():
            self.append(channel, value)

    # ------------------------------------------------------------------ #
    # Reading                                                             #
    # ------------------------------------------------------------------ #

    @property
    def channels(self) -> "list[str]":
        """All scalar channel names."""
        return sorted(self._channels)

    @property
    def vector_channels(self) -> "list[str]":
        """All vector channel names."""
        return sorted(self._vector_channels)

    def __len__(self) -> int:
        """Number of samples in the longest channel."""
        lengths = [b.count for b in self._channels.values()]
        lengths += [b.count for b in self._vector_channels.values()]
        return max(lengths, default=0)

    def as_array(self, channel: str) -> np.ndarray:
        """One channel's filled prefix as a zero-copy, read-only view.

        Scalar channels come back 1-D, vector channels ``(steps, width)``.
        The view aliases the live buffer: it is valid until the next
        append to the channel (growth may reallocate the storage).

        Raises:
            SimulationError: for unknown channels.
        """
        if channel in self._channels:
            return self._channels[channel].view()
        if channel in self._vector_channels:
            return self._vector_channels[channel].view()
        raise SimulationError(f"unknown channel: {channel!r}")

    def series(self, channel: str) -> np.ndarray:
        """One scalar channel as a 1-D array (a private copy).

        Raises:
            SimulationError: for unknown channels.
        """
        if channel not in self._channels:
            raise SimulationError(f"unknown channel: {channel!r}")
        return self._channels[channel].view().copy()

    def matrix(self, channel: str) -> np.ndarray:
        """One vector channel as a ``(steps, width)`` matrix."""
        if channel not in self._vector_channels:
            raise SimulationError(f"unknown vector channel: {channel!r}")
        return self._vector_channels[channel].view().copy()

    def check_aligned(self) -> None:
        """Verify all channels hold the same number of samples.

        Raises:
            SimulationError: listing the mismatched channels.
        """
        lengths = {name: b.count for name, b in self._channels.items()}
        lengths.update(
            {name: b.count for name, b in self._vector_channels.items()}
        )
        if len(set(lengths.values())) > 1:
            raise SimulationError(f"channels out of sync: {lengths}")

    # ------------------------------------------------------------------ #
    # Export                                                              #
    # ------------------------------------------------------------------ #

    def to_csv(self, path: "str | os.PathLike") -> None:
        """Write the scalar channels as one CSV with a header row."""
        self.check_aligned()
        names = self.channels
        if not names:
            raise SimulationError("nothing recorded")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for row in zip(*(self.as_array(n) for n in names)):
                writer.writerow([float(v) for v in row])


class ListRecorder(Recorder):
    """The PR-2-era list-backed recorder, kept as a benchmark reference.

    Semantically identical to :class:`Recorder` but grows Python lists
    per channel per step (one allocation and one defensive copy per
    vector sample). The sweep benchmark swaps it in to attribute how much
    of the speedup the preallocated buffers account for; production code
    never uses it.
    """

    def __init__(self) -> None:
        super().__init__()
        self._scalar_lists: "dict[str, list[float]]" = {}
        self._vector_lists: "dict[str, list[np.ndarray]]" = {}

    def append(self, channel: str, value: float) -> None:
        self._scalar_lists.setdefault(channel, []).append(float(value))

    def append_vector(
        self, channel: str, value: np.ndarray, copy: bool = True
    ) -> None:
        self._vector_lists.setdefault(channel, []).append(
            np.asarray(value, dtype=float).copy()
        )

    def _materialise(self) -> None:
        """Flush the lists into the buffer store for reads."""
        for name, samples in self._scalar_lists.items():
            buffer = self._channels.get(name)
            if buffer is None:
                buffer = self._channels[name] = _ScalarBuffer()
            if buffer.count != len(samples):
                buffer.count = 0
                buffer.extend(np.asarray(samples, dtype=float))
        for name, rows in self._vector_lists.items():
            vbuffer = self._vector_channels.get(name)
            if vbuffer is None:
                vbuffer = self._vector_channels[name] = _VectorBuffer(
                    rows[0].shape[0]
                )
            if vbuffer.count != len(rows):
                vbuffer.count = 0
                vbuffer.extend(np.vstack(rows))

    def __len__(self) -> int:
        lengths = [len(v) for v in self._scalar_lists.values()]
        lengths += [len(v) for v in self._vector_lists.values()]
        return max(lengths, default=0)

    def as_array(self, channel: str) -> np.ndarray:
        self._materialise()
        return super().as_array(channel)

    def series(self, channel: str) -> np.ndarray:
        if channel not in self._scalar_lists:
            raise SimulationError(f"unknown channel: {channel!r}")
        self._materialise()
        return super().series(channel)

    def matrix(self, channel: str) -> np.ndarray:
        if channel not in self._vector_lists:
            raise SimulationError(f"unknown vector channel: {channel!r}")
        self._materialise()
        return super().matrix(channel)

    def check_aligned(self) -> None:
        lengths = {name: len(v) for name, v in self._scalar_lists.items()}
        lengths.update(
            {name: len(v) for name, v in self._vector_lists.items()}
        )
        if len(set(lengths.values())) > 1:
            raise SimulationError(f"channels out of sync: {lengths}")

    @property
    def channels(self) -> "list[str]":
        return sorted(self._scalar_lists)

    @property
    def vector_channels(self) -> "list[str]":
        return sorted(self._vector_lists)
