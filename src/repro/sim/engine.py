"""Discrete-time simulation engine.

A deliberately small fixed-step engine: the interesting orchestration
lives in :mod:`repro.sim.datacenter`; this module owns the clock, the hook
registry, the stop conditions and the event bus, so every experiment
advances time the same way and step hooks (recorders, probes, fault
injectors) compose.

The clock is derived, not accumulated: ``now = start + steps * dt``.
Repeated float addition would drift by whole steps over a month-long run
(~5.2M steps at ``dt=0.5``); the derived form keeps every boundary exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import SimulationError
from .events import EventBus

#: A step hook: called as ``hook(time_s, dt)`` after each step.
StepHook = Callable[[float, float], None]
#: A stop predicate: called as ``predicate(time_s)``; True halts the run.
StopPredicate = Callable[[float], bool]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one engine run.

    Attributes:
        start_s: Time at the first step.
        end_s: Time after the last executed step.
        steps: Number of steps executed.
        stopped_early: True if a stop predicate halted the run before the
            requested end time.
    """

    start_s: float
    end_s: float
    steps: int
    stopped_early: bool


class Engine:
    """Fixed-step clock with hooks, stop predicates and an event bus.

    Args:
        dt: Step length in seconds.
        start_s: Initial clock value.
        bus: Event bus shared with the orchestration layer; a fresh
            recording bus is created when omitted.
        initial_steps: Steps already counted against ``start_s`` — the
            clock starts at ``start_s + initial_steps * dt``. Used when a
            restored snapshot resumes partway through a segment: keeping
            the original anchor means every remaining step lands on the
            exact same derived time as an unbroken run.
    """

    def __init__(
        self,
        dt: float,
        start_s: float = 0.0,
        bus: "EventBus | None" = None,
        initial_steps: int = 0,
    ) -> None:
        if dt <= 0.0:
            raise SimulationError(f"dt must be positive, got {dt}")
        if initial_steps < 0:
            raise SimulationError("initial_steps must be non-negative")
        self._dt = dt
        self._start_s = start_s
        self._steps_done = initial_steps
        self._bus = bus if bus is not None else EventBus()
        self._hooks: list[StepHook] = []
        self._stops: list[StopPredicate] = []
        self._running = False

    @property
    def dt(self) -> float:
        """Step length in seconds."""
        return self._dt

    @property
    def now_s(self) -> float:
        """Current simulation time, derived as ``start + steps * dt``."""
        return self._start_s + self._steps_done * self._dt

    @property
    def bus(self) -> EventBus:
        """The engine-level event bus."""
        return self._bus

    def add_hook(self, hook: StepHook) -> None:
        """Register a per-step hook (runs after the step, in order added).

        Raises:
            SimulationError: if called while a run is in progress.
        """
        if self._running:
            raise SimulationError("cannot register hooks during a run")
        self._hooks.append(hook)

    def add_stop(self, predicate: StopPredicate) -> None:
        """Register a stop predicate, checked after every step."""
        if self._running:
            raise SimulationError("cannot register stops during a run")
        self._stops.append(predicate)

    def step(self) -> None:
        """Advance one step, firing hooks."""
        now = self.now_s
        for hook in self._hooks:
            hook(now, self._dt)
        self._steps_done += 1

    def run_until(self, end_s: float) -> RunResult:
        """Run steps until ``end_s`` or a stop predicate fires.

        The final step is never shortened: the run covers
        ``ceil((end - now) / dt)`` whole steps, so callers that need exact
        alignment should pick ``dt`` dividing the duration.
        """
        if end_s <= self.now_s:
            raise SimulationError(
                f"end time {end_s} not after current time {self.now_s}"
            )
        start = self.now_s
        begin_steps = self._steps_done
        stopped = False
        # The loop inlines :meth:`step` and ``now_s``.
        hooks = self._hooks
        stops = self._stops
        dt = self._dt
        origin = self._start_s
        limit = end_s - 1e-9
        now = start
        self._running = True
        try:
            while now < limit:
                for hook in hooks:
                    hook(now, dt)
                self._steps_done += 1
                now = origin + self._steps_done * dt
                for stop in stops:
                    if stop(now):
                        stopped = True
                        break
                if stopped:
                    break
        finally:
            self._running = False
        return RunResult(
            start_s=start,
            end_s=self.now_s,
            steps=self._steps_done - begin_steps,
            stopped_early=stopped,
        )
