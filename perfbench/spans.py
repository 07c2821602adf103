"""In-memory span tracer wrapped around the library's public layer callables.

A traced pass installs thin wrappers, from outside the library, around:

* the swappable ``DataCenterSimulation.pipeline`` stages (patched on the
  class, so every pipeline built while tracing binds the wrapper);
* the defense schemes' ``dispatch`` and ``management``;
* the battery-fleet and breaker-bank ``step`` methods;
* the compiled kernel provider's entry points and tier resolution;
* the survival entry points ``run_survival``, ``run_survival_cohort``,
  ``resume_survival_from_snapshot`` and ``prepare_survival_prefix``,
  rebound in every ``repro`` module that imported them by name.

Every wrapper records one span (name, start, end, parent, cell id) in
memory; :meth:`Tracer.write` dumps them once, at the end of a run. Self
time (a span's duration minus its direct children's) is rolled up per
span name while the pass runs, so the per-layer metrics need no second
pass over the span list. A call re-entering a span of the same name
(``super().dispatch()``, a cohort grid stage calling a per-cell grid
stage) is folded into the outer span instead of nesting.

Wrapped methods keep their ``__name__``, and patching happens on the
class, never on instances: simulations still pickle (snapshots), and
identity checks such as ``cls.management is DefenseScheme.management``
keep their outcome because each defining class gets exactly one wrapper.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

#: Pipeline stage methods, by span name. The cohort's per-cell grid
#: stage and the injectors' stages are listed separately below.
STAGES = {
    "stage.workload": "stage_workload",
    "stage.attack": "stage_attack",
    "stage.demand": "stage_demand",
    "stage.defense": "stage_defense",
    "stage.protection": "stage_protection",
    "stage.accounting": "stage_accounting",
}


class Tracer:
    """Span recorder plus the patch set that feeds it.

    Args:
        workload: Workload name stamped on the dumped spans.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: ``[name, start, end, parent index, cell id]`` per span.
        self.spans: "list[list]" = []
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.total_s: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        #: Counters recorded at the layer boundaries.
        self.counts: "dict[str, float]" = defaultdict(float)
        self.results: "list" = []
        self._stack: "list[list]" = []  # [span index, name, child seconds]
        self._cell = "-"
        self._next_batch = 0
        self._undo: "list[tuple[object, str, object]]" = []
        self._originals: "dict[str, object]" = {}

    # ------------------------------------------------------------------ #
    # Span recording                                                      #
    # ------------------------------------------------------------------ #

    def _wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span ``name`` around each outermost call.

        ``before(args, kwargs)`` may return a cell id that labels this
        span and its descendants; ``after(args, kwargs, result)`` sees
        the return value.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            saved_cell = tracer._cell
            if before is not None:
                cell = before(args, kwargs)
                if cell is not None:
                    tracer._cell = cell
            spans = tracer.spans
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1,
                      tracer._cell]
            spans.append(record)
            frame = [index, name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._cell = saved_cell
                duration = end - start
                record[1] = start
                record[2] = end
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        if attr in cls.__dict__:
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr],
                                              **hooks))

    def _patch_function(self, original, name: str, **hooks) -> None:
        """Rebind ``original`` in every loaded ``repro`` module."""
        self._originals[name] = original
        wrapper = self._wrap(name, original, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # ------------------------------------------------------------------ #
    # Install / uninstall                                                 #
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every public layer callable; undo with :meth:`uninstall`."""
        from repro import kernels as kernels_pkg
        from repro.battery.fleet import BatteryFleet
        from repro.battery.fleet_kernels import VectorBatteryFleet
        from repro.defense.base import DefenseScheme
        from repro.experiments import common
        from repro.faults.injector import FaultInjector
        from repro.grid.injector import GridInjector
        from repro.power.breaker_kernels import (
            BreakerBankState,
            CompiledBreakerBank,
            ScalarBreakerBank,
        )
        from repro.sim import cohort
        from repro.sim.datacenter import DataCenterSimulation

        for cls in (DataCenterSimulation, cohort.CohortSimulation):
            for span, attr in STAGES.items():
                hooks = {}
                if attr == "stage_workload":
                    hooks["before"] = self._count_step
                self._patch_method(cls, attr, span, **hooks)
        self._patch_method(cohort.CohortSimulation, "stage_grid_cells",
                           "stage.grid")
        self._patch_method(GridInjector, "stage_grid", "stage.grid")
        self._patch_method(FaultInjector, "stage_faults", "stage.faults")

        for cls in _subclasses(DefenseScheme):
            self._patch_method(cls, "dispatch", "defense.dispatch")
            self._patch_method(cls, "management", "defense.management")
        for cls in (BatteryFleet, VectorBatteryFleet):
            self._patch_method(cls, "step", "battery.fleet")
        for cls in (ScalarBreakerBank, BreakerBankState, CompiledBreakerBank):
            self._patch_method(cls, "step", "power.breakers")

        namespace = kernels_pkg.get_kernels()
        if namespace is not None:
            for attr in list(vars(namespace)):
                hooks = {}
                if attr == "drain_block":
                    hooks["after"] = self._count_drain_ticks
                self._patch(namespace, attr, self._wrap(
                    f"kernels.{attr}", getattr(namespace, attr), **hooks))
        self._patch_function(kernels_pkg.resolve_kernels, "kernels.resolve",
                             after=self._count_fallback)

        self._patch_function(common.run_survival, "run.survival",
                             before=self._cell_of_run,
                             after=self._keep_result)
        self._patch_function(common.run_survival_cohort,
                             "run.survival_cohort",
                             before=self._cell_of_batch,
                             after=self._keep_results)
        self._patch_function(common.resume_survival_from_snapshot,
                             "run.resume_from_snapshot",
                             before=self._cell_of_fork,
                             after=self._keep_result)
        self._patch_function(common.prepare_survival_prefix,
                             "run.prepare_prefix",
                             before=self._cell_of_prefix)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Boundary counters                                                   #
    # ------------------------------------------------------------------ #

    def _count_step(self, args, _kwargs):
        sim = args[0]
        racks = sim.cluster.racks
        self.counts["steps"] += 1
        self.counts["rack_steps"] += racks
        # A cohort stacks n cells of config.cluster.racks racks each.
        self.counts["cell_steps"] += racks // sim.config.cluster.racks
        if sim.topology.has_pdu_tier:
            self.counts["mid_tier_steps"] += 1
        return None

    def _count_drain_ticks(self, _args, _kwargs, ticks) -> None:
        self.counts["drain_ticks"] += int(ticks)

    def _count_fallback(self, args, kwargs, effective) -> None:
        requested = args[0] if args else kwargs.get("kernels")
        if requested == "compiled" and effective != "compiled":
            self.counts["kernel_fallbacks"] += 1

    def _arguments(self, name: str, args, kwargs) -> dict:
        return bind_arguments(self._originals[name], args, kwargs)

    def _inside_run_survival(self) -> bool:
        return any(frame[1] == "run.survival" for frame in self._stack)

    def _cell_of_run(self, args, kwargs):
        bound = self._arguments("run.survival", args, kwargs)
        scenario = bound["scenario"]
        label = scenario.name if scenario is not None else "benign"
        return f"{bound['scheme_name']}|{label}|{bound['seed']}"

    def _cell_of_fork(self, args, kwargs):
        bound = self._arguments("run.resume_from_snapshot", args, kwargs)
        return f"fork|{bound['scenario'].name}|{bound['seed']}"

    def _cell_of_prefix(self, args, kwargs):
        bound = self._arguments("run.prepare_prefix", args, kwargs)
        return f"prefix|{bound['scheme_name']}"

    def _cell_of_batch(self, args, kwargs):
        # run_survival(backend="cohort") is a width-1 cohort: a per-cell
        # run, not a batch.
        if not self._inside_run_survival():
            members = self._arguments("run.survival_cohort", args, kwargs)
            self.counts["cohort_batches"] += 1
            self.counts["cohort_members"] += len(members["members"])
        self._next_batch += 1
        return f"batch-{self._next_batch}"

    def _keep_result(self, _args, _kwargs, result) -> None:
        self.results.append(result)

    def _keep_results(self, _args, _kwargs, results) -> None:
        if not self._inside_run_survival():
            self.results.extend(results)

    # ------------------------------------------------------------------ #
    # Output                                                              #
    # ------------------------------------------------------------------ #

    def write(self, path: str) -> None:
        """Dump every recorded span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for name, start, end, parent, cell in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "workload": self.workload,
                    "cell": cell,
                }) + "\n")


def _subclasses(cls) -> "list[type]":
    """``cls`` and every subclass currently defined, parents first."""
    found = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in found:
                found.append(item)
    return found


def bind_arguments(fn, args, kwargs) -> dict:
    """``fn``'s arguments by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments
