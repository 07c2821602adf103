"""Timed passes, the correctness gate, and the metric roll-up.

End-to-end metrics come from untraced passes only. Per-layer metrics
come from traced passes: every time is a *self* time (a span minus its
direct children), and every span's self time counts toward exactly one
layer (:func:`layer_of`), so the layers partition the traced spans;
every count and time is per traced pass.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections import defaultdict

import workloads
from probe import SpeedProbe
from spans import Tracer

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units, in report order.
PER_LAYER = {
    "stage.workload.us_per_step": "us",
    "stage.attack.us_per_step": "us",
    "stage.demand.us_per_step": "us",
    "stage.defense.us_per_step": "us",
    "stage.protection.us_per_step": "us",
    "stage.accounting.us_per_step": "us",
    "stage.faults.us_per_step": "us",
    "stage.grid.us_per_step": "us",
    "sim.steps": "count",
    "sim.outside_stages.us_per_step": "us",
    "sim.us_per_rack_step": "us",
    "defense.dispatch.us_per_call": "us",
    "defense.dispatch.calls_per_cell_step": "ratio",
    "defense.management.us_per_call": "us",
    "defense.management.calls": "count",
    "battery.fleet.us_per_step": "us",
    "power.breakers.us_per_step": "us",
    "kernels.build_s": "s",
    "kernels.calls": "count",
    "kernels.drain_block.ticks_per_call": "ratio",
    "kernels.fallbacks": "count",
    "cohort.batches": "count",
    "cohort.cells_per_batch": "ratio",
    "cohort.run_s": "s",
    "sweep.cells_batched": "count",
    "sweep.cells_per_cell_path": "count",
    "sweep.cells_forked": "count",
    "search.candidates": "count",
    "search.rounds": "count",
    "search.cells_run": "count",
    "search.cells_per_candidate": "ratio",
    "search.pruned_frac": "frac",
    "search.prefix_snapshot_s": "s",
    "search.batch_s": "s",
    "search.fork_s": "s",
    "search.straight_s": "s",
    "recorder.rows": "count",
    "recorder.mb": "MB",
    "workload.trace_gen_s": "s",
    "trace.overhead_frac": "frac",
}

MIB = float(2 ** 20)

#: Compiled kernels, by the layer whose work each one does in place of
#: the numpy tier: ``fused_dispatch`` and ``drain_block`` step the
#: battery fleet (with its charger and shaver), ``breaker_step`` steps
#: the breaker bank.
KERNEL_LAYERS = {
    "kernels.fused_dispatch": "battery.fleet",
    "kernels.drain_block": "battery.fleet",
    "kernels.breaker_step": "power.breakers",
}

#: Spans that are a layer of their own.
OWN_LAYERS = ("defense.dispatch", "defense.management", "battery.fleet",
              "power.breakers")

#: Problems kept for the report (the count is always exact).
KEPT_PROBLEMS = 20


class Report:
    """Metrics of one run plus the gate's verdict."""

    def __init__(self, names: "dict[str, str]") -> None:
        self.units = names
        self.metrics: "dict[str, float]" = {}
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.checks: "dict[str, bool]" = {}
        self.passes: "dict[str, list[float]]" = {}
        self.context: "dict[str, float]" = {}

    def render(self, environment: dict, path: str) -> dict:
        """Print every metric with its unit, write the full report, and
        return the result line's object."""
        correct = self.failed == 0 and all(self.checks.values())
        failed_frac = self.failed / self.attempted if self.attempted else 1.0
        for name, unit in self.units.items():
            print(f"{name:<40} {self.metrics[name]:>14.6g} {unit}")
        print(f"{'failed_frac':<40} {failed_frac:>14.6g} frac "
              f"({self.failed} of {self.attempted})")
        for name, value in self.context.items():
            print(f"({name}: {value:.6g})")
        for name, ok in self.checks.items():
            print(f"check {name:<34} {'ok' if ok else 'FAILED'}")
        for problem in self.problems:
            print(f"mismatch: {problem}")
        print(f"environment: {json.dumps(environment, sort_keys=True)}")
        result = {
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in self.units.items()
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**result, "failed_frac": failed_frac,
                       "checks": self.checks, "problems": self.problems,
                       "passes": self.passes, "context": self.context,
                       "environment": environment},
                      handle, indent=1)
            handle.write("\n")
        return result


class PassRunner:
    """Runs checked passes of one prepared workload."""

    def __init__(self, prepared: "workloads.Prepared", reference: dict):
        self.prepared = prepared
        self.reference = reference
        self.tracer = Tracer(prepared.name)
        self._attempted = 0
        self._problems: "list[str]" = []
        self._failed = 0

    def _pass(self, probe: "SpeedProbe | None" = None,
              ) -> "tuple[float, workloads.PassOutcome]":
        # Each pass leaves cyclic garbage behind; collecting it first
        # makes every pass start from the same heap, so peak RSS is one
        # pass's peak rather than a function of how many passes fit.
        gc.collect()
        start = time.perf_counter()
        if probe is None:
            outcome = self.prepared.run_pass(False)
        else:
            with probe:
                outcome = self.prepared.run_pass(False)
        elapsed = time.perf_counter() - start
        problems = workloads.check(outcome, self.reference)
        self._attempted += self.prepared.units
        self._failed += len(problems)
        for key, problem in problems.items():
            if len(self._problems) < KEPT_PROBLEMS:
                self._problems.append(f"{key}: {problem}")
        return elapsed, outcome

    def _finish(self, report: Report) -> Report:
        report.attempted = self._attempted
        report.failed = self._failed
        report.problems = self._problems
        return report

    def timed(self, seconds: float, setup_s: float) -> Report:
        """Untraced, probed passes within ``seconds`` (at least one).

        A pass starts only if one more median pass still fits, so a run
        does not overshoot its budget by a whole pass. ``wall_s`` is the
        median pass in reference seconds (:mod:`probe`); the host seconds
        and probe-loop times of every pass go to the full report.
        """
        walls: "list[float]" = []
        host: "list[float]" = []
        loops: "list[float]" = []
        durations: "list[float]" = []
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start
                            + statistics.median(durations) <= seconds):
            probe = SpeedProbe()
            elapsed = self._pass(probe)[0]
            durations.append(elapsed)
            walls.append(probe.rescale(elapsed))
            host.append(probe.work_s(elapsed))
            loops.append(probe.loop_s)
        wall = statistics.median(walls)
        report = Report(END_TO_END)
        report.passes.update({"reference_s": walls, "host_s": host,
                              "probe_loop_s": loops})
        report.metrics.update({
            "setup_s": setup_s,
            "wall_s": wall,
            "cells_per_s": self.prepared.units / wall,
        })
        report.context.update({
            "host wall_s (median pass)": statistics.median(host),
            "probe loop ms (median pass)": 1e3 * statistics.median(loops),
        })
        return self._finish(report)

    def traced(self, seconds: float, build_s: float,
               trace_gen_s: float) -> Report:
        """Untraced and traced passes, alternating, until ``seconds``."""
        untraced: "list[float]" = []
        traced: "list[float]" = []
        outcome = None
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(self._pass()[0])
            self.tracer.install()
            try:
                wall, outcome = self._pass()
            finally:
                self.tracer.uninstall()
            traced.append(wall)
        report = Report(PER_LAYER)
        report.passes = {"untraced": untraced, "traced": traced}
        report.metrics = rollup(self.tracer, len(traced), outcome)
        report.metrics["kernels.build_s"] = build_s
        report.metrics["workload.trace_gen_s"] = trace_gen_s
        report.metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
        report.checks = engagement(self.prepared, report.metrics,
                                   self.tracer)
        return self._finish(report)


def layer_of(span: str) -> str:
    """The layer whose self time a span's self time counts toward.

    Survival entry points and tier resolution are the engine outside the
    stages; a compiled kernel counts toward the layer it stands in for.
    A span name with no layer raises, so no traced time goes unreported.
    """
    if span.startswith("run.") or span == "kernels.resolve":
        return "sim.outside_stages"
    if span in KERNEL_LAYERS:
        return KERNEL_LAYERS[span]
    if span.startswith("stage.") or span in OWN_LAYERS:
        return span
    raise KeyError(f"span {span!r} belongs to no layer")


def rollup(tracer: Tracer, passes: int,
           outcome: "workloads.PassOutcome") -> "dict[str, float]":
    """Per-layer metrics from the spans of ``passes`` traced passes."""
    counts = tracer.counts
    total_s, calls = tracer.total_s, tracer.calls
    steps = counts["steps"]
    self_s: "dict[str, float]" = defaultdict(float)
    for name, seconds in tracer.self_s.items():
        self_s[layer_of(name)] += seconds

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def us_per_step(name: str) -> float:
        return per(self_s[name] * 1e6, steps)

    def us_per_call(name: str) -> float:
        return per(self_s[name] * 1e6, calls.get(name, 0))

    outermost_s = sum(end - start for _name, start, end, parent, _cell
                      in tracer.spans if parent == -1)
    kernel_calls = sum(n for name, n in calls.items()
                       if name.startswith("kernels.")
                       and name != "kernels.resolve")
    rows = 0
    recorded = 0.0
    for result in tracer.results:
        recorder = result.recorder
        rows += len(recorder)
        recorded += sum(recorder.series(c).nbytes for c in recorder.channels)
        recorded += sum(recorder.matrix(c).nbytes
                        for c in recorder.vector_channels)
    metrics = {
        f"{stage}.us_per_step": us_per_step(stage)
        for stage in ("stage.workload", "stage.attack", "stage.demand",
                      "stage.defense", "stage.protection",
                      "stage.accounting", "stage.faults", "stage.grid")
    }
    metrics.update({
        "sim.steps": steps / passes,
        "sim.outside_stages.us_per_step": us_per_step("sim.outside_stages"),
        "sim.us_per_rack_step": per(outermost_s * 1e6,
                                    counts["rack_steps"]),
        "defense.dispatch.us_per_call": us_per_call("defense.dispatch"),
        "defense.dispatch.calls_per_cell_step": per(
            calls.get("defense.dispatch", 0), counts["cell_steps"]),
        "defense.management.us_per_call": us_per_call("defense.management"),
        "defense.management.calls": calls.get("defense.management", 0)
        / passes,
        "battery.fleet.us_per_step": us_per_step("battery.fleet"),
        "power.breakers.us_per_step": us_per_step("power.breakers"),
        "kernels.calls": kernel_calls / passes,
        "kernels.drain_block.ticks_per_call": per(
            counts["drain_ticks"], calls.get("kernels.drain_block", 0)),
        "kernels.fallbacks": counts["kernel_fallbacks"] / passes,
        "cohort.batches": counts["cohort_batches"] / passes,
        "cohort.cells_per_batch": per(counts["cohort_members"],
                                      counts["cohort_batches"]),
        "cohort.run_s": total_s.get("run.survival_cohort", 0.0) / passes,
        "sweep.cells_batched": counts["cohort_members"] / passes,
        "sweep.cells_per_cell_path": calls.get("run.survival", 0) / passes,
        "sweep.cells_forked": calls.get("run.resume_from_snapshot", 0)
        / passes,
        "recorder.rows": rows / passes,
        "recorder.mb": recorded / MIB / passes,
    })
    frontier = outcome.frontier
    search = dict.fromkeys(
        ("search.candidates", "search.rounds", "search.cells_run",
         "search.cells_per_candidate", "search.pruned_frac",
         "search.prefix_snapshot_s", "search.batch_s", "search.fork_s",
         "search.straight_s"),
        0.0,
    )
    if frontier is not None:
        candidates = len(frontier.outcomes)
        pruned = sum(o.status == "pruned" for o in frontier.outcomes)
        search.update({
            "search.candidates": candidates,
            "search.rounds": 1 + max(o.round_index
                                     for o in frontier.outcomes),
            "search.cells_run": frontier.cells_run,
            "search.cells_per_candidate": frontier.cells_run / candidates,
            "search.pruned_frac": pruned / candidates,
            "search.prefix_snapshot_s":
                total_s.get("run.prepare_prefix", 0.0) / passes,
            "search.batch_s": total_s.get("run.survival_cohort", 0.0)
            / passes,
            "search.fork_s": total_s.get("run.resume_from_snapshot", 0.0)
            / passes,
            "search.straight_s": total_s.get("run.survival", 0.0) / passes,
        })
    metrics.update(search)
    return metrics


def engagement(prepared: "workloads.Prepared", metrics: "dict[str, float]",
               tracer: Tracer) -> "dict[str, bool]":
    """Did the workload exercise the mechanism it was chosen for?"""
    calls = tracer.calls
    checks = {
        "every stage traced": all(
            calls.get(f"stage.{s}", 0) > 0
            for s in ("workload", "attack", "demand", "defense",
                      "protection", "accounting")
        ),
        "dispatch traced": calls.get("defense.dispatch", 0) > 0,
        "breakers traced": calls.get("power.breakers", 0) > 0,
    }
    name = prepared.name
    if name == "paper-cell":
        checks["cells run one by one"] = (
            metrics["sweep.cells_per_cell_path"] == prepared.units
            and metrics["sweep.cells_batched"] == 0
            and metrics["sweep.cells_forked"] == 0
        )
    elif name == "stacked-sweep":
        checks["cells batched"] = metrics["sweep.cells_batched"] > 0
        checks["dispatch calls per cell-step < 1"] = (
            metrics["defense.dispatch.calls_per_cell_step"] < 1
        )
        checks["compiled kernels called"] = (
            metrics["kernels.calls"] > 0 and metrics["kernels.fallbacks"] == 0
        )
    elif name == "frontier-search":
        checks["candidates pruned"] = metrics["search.pruned_frac"] > 0
        checks["cells forked"] = metrics["sweep.cells_forked"] > 0
        checks["grid stage ran"] = calls.get("stage.grid", 0) > 0
    elif name == "fleet-1024":
        checks["fault stage ran"] = calls.get("stage.faults", 0) > 0
        checks["mid-tier PDU breakers ran"] = (
            tracer.counts["mid_tier_steps"] == tracer.counts["steps"] > 0
        )
    return checks
