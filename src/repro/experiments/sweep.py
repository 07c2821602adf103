"""Batch execution of scheme x scenario grids (the experiment fan-out).

Every headline experiment is a grid of independent simulation runs —
schemes crossed with attack scenarios (Fig. 15), attack rates or spike
widths (Fig. 16), capacities (Fig. 17). :class:`ScenarioSweep` executes
such a grid either sequentially or fanned out over a process pool, with
deterministic per-cell seeds, and returns values in cell order so the
parallel and sequential paths produce bit-identical grids.

Cells are plain picklable dataclasses and the worker function is
module-level, so the pool workers (forked or spawned) can rebuild every
run from its ``(setup, cell)`` pair alone — the same determinism contract
the rest of the reproduction honours.

The sweep is hardened for long unattended campaigns:

* per-cell wall-clock **timeouts** (a wedged worker cannot stall the
  grid);
* **retry with exponential backoff** (plus deterministic jitter) when a
  worker crashes or times out — bounded attempts, after which the cell
  surfaces as a typed :class:`CellFailure` (metric ``NaN``) instead of
  sinking the whole sweep;
* a **JSONL checkpoint journal**: every resolved cell is appended and
  flushed, and ``run(resume=True)`` replays journalled metrics instead
  of re-executing — a killed sweep resumes bit-identically because JSON
  float round-tripping is exact;
* **graceful sequential fallback** when the process pool cannot be
  created at all (restricted environments).

A cell that *raises* a :class:`~repro.errors.ReproError` is invalid, not
unlucky — it fails immediately, without retries, preserving the
"cell invalid" (deterministic) vs "cell failed" (environmental)
distinction via :class:`~repro.errors.SweepExecutionError` semantics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..attack.scenario import AttackScenario
from ..defense import SCHEMES
from ..errors import ConfigError, ReproError, SimulationError, SweepExecutionError
from ..faults.spec import FaultPlan
from ..grid.spec import GridPlan
from ..kernels import KERNEL_TIERS
from ..sim.datacenter import DataCenterSimulation
from ..sim.runner import ATTACK_DT_S
from .common import (
    CohortMember,
    ExperimentSetup,
    run_survival,
    run_survival_cohort,
    run_throughput,
)


@dataclass(frozen=True)
class SweepCell:
    """One independent run of a sweep grid.

    Attributes:
        row: Grid row label (e.g. the scenario name).
        column: Grid column label (e.g. the scheme name).
        scheme: A key of :data:`repro.defense.SCHEMES`.
        scenario: The attack, or ``None`` for an attack-free baseline.
        window_s: Observation window length.
        dt: Simulation step.
        seed: Attacker/placement seed for this cell.
        mode: ``"survival"`` (stop on trip, report survival seconds) or
            ``"throughput"`` (breakers re-arm, report throughput ratio).
        initial_battery_soc: Starting battery SOC.
        record_every: Recorder cadence (baseline throughput cells only;
            the survival/throughput harnesses fix their own cadence).
        backend: Physics implementation for the cell's simulation
            (``"vectorized"``, ``"scalar"`` or ``"cohort"``). Cohort
            cells are survival-only; the sweep batches compatible ones
            into stacked multi-cell runs (see
            :meth:`ScenarioSweep._run_cohorts`) and any leftover cell
            runs through the same backend individually, so the metric
            never depends on how cells were grouped.
        fault_plan: Optional fault schedule injected into the cell's
            simulation (degraded-mode sweeps).
        grid_plan: Optional grid-disturbance schedule injected into the
            cell's simulation (ride-through sweeps; window times are
            absolute simulation times, and all three backends accept
            one).
        kernels: Per-step kernel tier (``"numpy"`` or ``"compiled"``),
            orthogonal to ``backend`` and bit-identical across tiers
            (see :mod:`repro.kernels`).
    """

    row: str
    column: str
    scheme: str
    scenario: "AttackScenario | None"
    window_s: float
    dt: float = ATTACK_DT_S
    seed: int = 7
    mode: str = "survival"
    initial_battery_soc: float = 1.0
    record_every: int = 200
    backend: str = "vectorized"
    fault_plan: "FaultPlan | None" = None
    grid_plan: "GridPlan | None" = None
    kernels: str = "numpy"

    def __post_init__(self) -> None:
        if self.mode not in ("survival", "throughput"):
            raise SimulationError(f"unknown sweep mode: {self.mode!r}")
        if self.scheme not in SCHEMES:
            raise SimulationError(f"unknown scheme: {self.scheme!r}")
        if self.backend not in ("scalar", "vectorized", "cohort"):
            raise SimulationError(f"unknown backend: {self.backend!r}")
        if self.kernels not in KERNEL_TIERS:
            raise SimulationError(f"unknown kernel tier: {self.kernels!r}")
        if self.backend == "cohort":
            # Eager rejection, mirroring run_survival's cohort limits:
            # a cell the backend cannot execute must fail at grid
            # construction, not inside a pool worker.
            if self.mode != "survival":
                raise ConfigError(
                    "cohort backend supports survival cells only, got "
                    f"mode={self.mode!r}"
                )
            if self.fault_plan is not None:
                raise ConfigError(
                    "cohort backend does not support fault plans"
                )
        # Eager numeric validation: a malformed cell must fail at grid
        # construction, not hours later inside a pool worker.
        if not self.window_s > 0.0:
            raise ConfigError(
                f"sweep cell window_s must be positive, got {self.window_s}"
            )
        if not self.dt > 0.0:
            raise ConfigError(
                f"sweep cell dt must be positive, got {self.dt}"
            )
        if not 0.0 <= self.initial_battery_soc <= 1.0:
            raise ConfigError(
                "sweep cell initial_battery_soc must lie in [0, 1], got "
                f"{self.initial_battery_soc}"
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise ConfigError("sweep cell fault_plan must be a FaultPlan")
        if self.grid_plan is not None and not isinstance(
            self.grid_plan, GridPlan
        ):
            raise ConfigError("sweep cell grid_plan must be a GridPlan")


def derive_cell_seed(base_seed: int, *labels: str) -> int:
    """A deterministic, platform-stable per-cell seed.

    Hashes the labels (scenario and scheme names, typically) with the
    base seed so each cell gets an independent but reproducible stream —
    identical across processes, platforms and Python hash randomisation.
    """
    digest = hashlib.sha256(
        ("\x1f".join((str(base_seed), *labels))).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


def survival_grid_cells(
    scenarios: "Iterable[AttackScenario]",
    schemes: "Iterable[str]",
    window_s: float,
    dt: float = ATTACK_DT_S,
    seed: int = 7,
    per_cell_seeds: bool = False,
    backend: str = "vectorized",
    kernels: str = "numpy",
) -> "list[SweepCell]":
    """The Fig.-15-style grid: scenarios as rows, schemes as columns.

    Args:
        per_cell_seeds: Derive an independent seed per cell via
            :func:`derive_cell_seed` instead of sharing ``seed``
            everywhere (the paper-reproduction default, which keeps the
            attacker's placement lottery identical across schemes so the
            grid isolates the defense).
        backend: Physics implementation for every cell.
    """
    cells = []
    for scenario in scenarios:
        for scheme in schemes:
            cell_seed = (
                derive_cell_seed(seed, scenario.name, scheme)
                if per_cell_seeds
                else seed
            )
            cells.append(
                SweepCell(
                    row=scenario.name,
                    column=scheme,
                    scheme=scheme,
                    scenario=scenario,
                    window_s=window_s,
                    dt=dt,
                    seed=cell_seed,
                    backend=backend,
                    kernels=kernels,
                )
            )
    return cells


def execute_cell(setup: ExperimentSetup, cell: SweepCell) -> float:
    """Run one cell and return its scalar metric."""
    if cell.mode == "survival":
        result = run_survival(
            setup,
            cell.scheme,
            cell.scenario,
            window_s=cell.window_s,
            dt=cell.dt,
            seed=cell.seed,
            backend=cell.backend,
            fault_plan=cell.fault_plan,
            grid_plan=cell.grid_plan,
            kernels=cell.kernels,
        )
        return result.survival_or_window()
    if cell.scenario is None:
        # Attack-free throughput baseline: same window, same repair
        # policy, no adversary — the Fig. 16 normaliser.
        sim = DataCenterSimulation(
            setup.config,
            setup.trace,
            SCHEMES[cell.scheme],
            repair_time_s=300.0,
            initial_battery_soc=cell.initial_battery_soc,
            backend=cell.backend,
            fault_plan=cell.fault_plan,
            grid_plan=cell.grid_plan,
            kernels=cell.kernels,
        )
        result = sim.run(
            duration_s=cell.window_s,
            dt=cell.dt,
            start_s=setup.attack_time_s,
            record_every=cell.record_every,
        )
        return result.throughput_ratio
    result = run_throughput(
        setup,
        cell.scheme,
        cell.scenario,
        window_s=cell.window_s,
        dt=cell.dt,
        seed=cell.seed,
        initial_battery_soc=cell.initial_battery_soc,
        backend=cell.backend,
        fault_plan=cell.fault_plan,
        grid_plan=cell.grid_plan,
        kernels=cell.kernels,
    )
    return result.throughput_ratio


def _execute_in_worker(setup: ExperimentSetup, cell: SweepCell) -> float:
    """Pool entry point that runs :func:`execute_cell`.

    Module-level so workers can unpickle it by name; it looks
    ``execute_cell`` up at call time, so a replaced module attribute (a
    wrapper around the real function) is what the worker runs.
    """
    return execute_cell(setup, cell)


def cell_fingerprint(cell: SweepCell) -> str:
    """A stable digest identifying a cell's full configuration.

    Journals store this next to every entry so ``resume=`` can prove the
    journal belongs to the grid being resumed: frozen-dataclass ``repr``
    is deterministic (float ``repr`` round-trips exactly), so identical
    cells fingerprint identically across processes and platforms.
    """
    return hashlib.sha256(repr(cell).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CellFailure:
    """A cell that could not produce a metric.

    Attributes:
        index: The cell's position in the grid.
        cell: The failed cell.
        attempts: How many executions were tried.
        error: Human-readable description of the final error.
        invalid: True when the cell itself was rejected (a
            :class:`~repro.errors.ReproError` — deterministic, never
            retried); False for environmental failures (crash/timeout,
            retried until the attempt budget ran out).
    """

    index: int
    cell: SweepCell
    attempts: int
    error: str
    invalid: bool = False


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one sweep.

    Attributes:
        cells: The executed cells, in execution order.
        metrics: One scalar per cell, aligned with ``cells``; failed
            cells report ``NaN``.
        failures: Typed records for every cell without a metric.
    """

    cells: "tuple[SweepCell, ...]"
    metrics: "tuple[float, ...]"
    failures: "tuple[CellFailure, ...]" = ()

    def by_cell(self) -> "list[tuple[SweepCell, float]]":
        """``(cell, metric)`` pairs in execution order."""
        return list(zip(self.cells, self.metrics))

    def grid(self) -> "dict[str, dict[str, float]]":
        """The ``{row: {column: metric}}`` view, in cell order."""
        table: dict[str, dict[str, float]] = {}
        for cell, value in zip(self.cells, self.metrics):
            table.setdefault(cell.row, {})[cell.column] = value
        return table

    @property
    def ok(self) -> bool:
        """True when every cell produced a metric."""
        return not self.failures


@dataclass
class _Outcome:
    """Mutable per-cell execution record used while a sweep runs."""

    metric: float = math.nan
    attempts: int = 0
    error: "str | None" = None
    invalid: bool = False
    done: bool = False


def repair_jsonl_tail(path: str) -> None:
    """Make a JSONL journal safe to append to after a mid-write kill.

    A SIGKILL landing inside :meth:`_Journal.record` can leave a torn
    final line; appending after it would weld the next record onto the
    fragment, corrupting the journal for every later resume. A torn
    (unparseable) tail is truncated away; a complete record that merely
    lost its newline gets the newline back instead of being dropped.
    """
    try:
        if os.path.getsize(path) == 0:
            return
    except OSError:
        return  # nothing to repair
    with open(path, "rb+") as handle:
        data = handle.read()
        if data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        try:
            json.loads(data[cut:].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            handle.truncate(cut)
        else:
            handle.write(b"\n")


class _Journal:
    """Append-only JSONL checkpoint of resolved sweep cells."""

    def __init__(self, path: str) -> None:
        self._path = path
        repair_jsonl_tail(path)
        self._handle = open(path, "a", encoding="utf-8")

    def record(
        self, index: int, cell: SweepCell, outcome: _Outcome
    ) -> None:
        line = json.dumps({
            "index": index,
            "fingerprint": cell_fingerprint(cell),
            "row": cell.row,
            "column": cell.column,
            "status": "ok" if outcome.error is None else "failed",
            "metric": None if math.isnan(outcome.metric) else outcome.metric,
            "attempts": outcome.attempts,
            "error": outcome.error,
            "invalid": outcome.invalid,
        })
        self._handle.write(line + "\n")
        # Flush through to the OS so a killed sweep loses at most the
        # cell in flight, never a resolved one.
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    @staticmethod
    def load(path: str, cells: "Sequence[SweepCell]") -> "dict[int, _Outcome]":
        """Parse a journal, validating entries against the grid.

        A trailing half-written line (the kill landed mid-write) is
        tolerated and dropped; a fingerprint mismatch means the journal
        belongs to a different grid and is a hard error.
        """
        resolved: "dict[int, _Outcome]" = {}
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for lineno, raw in enumerate(lines):
            raw = raw.strip()
            if not raw:
                continue
            try:
                entry = json.loads(raw)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    break  # torn final write from a mid-run kill
                raise SweepExecutionError(
                    f"corrupt sweep journal {path!r} at line {lineno + 1}"
                )
            index = entry.get("index")
            if not isinstance(index, int) or not 0 <= index < len(cells):
                raise SweepExecutionError(
                    f"sweep journal {path!r} references cell {index!r} "
                    f"outside the {len(cells)}-cell grid"
                )
            expected = cell_fingerprint(cells[index])
            if entry.get("fingerprint") != expected:
                raise SweepExecutionError(
                    f"sweep journal {path!r} was written for a different "
                    f"grid (cell {index} fingerprint mismatch)"
                )
            metric = entry.get("metric")
            resolved[index] = _Outcome(
                metric=math.nan if metric is None else float(metric),
                attempts=int(entry.get("attempts", 1)),
                error=entry.get("error"),
                invalid=bool(entry.get("invalid", False)),
                done=True,
            )
        return resolved


def _backoff_jitter_s(index: int, attempt: int, backoff_s: float) -> float:
    """Deterministic exponential backoff with per-(cell, attempt) jitter."""
    digest = hashlib.sha256(f"{index}:{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2**32
    return min(backoff_s * 2 ** (attempt - 1) * (1.0 + jitter), 30.0)


class ScenarioSweep:
    """Executes a grid of sweep cells, optionally over a process pool.

    Sequential and parallel execution return bit-identical results: each
    cell is a self-contained ``(setup, cell)`` run, results are assembled
    in cell order, and seeds are fixed per cell. The parallel path is
    hardened — per-cell timeouts, bounded retries with exponential
    backoff on worker crashes, a checkpoint journal with resume, and a
    sequential fallback when no pool can be created — without weakening
    that contract: a metric is a pure function of ``(setup, cell)``, so
    *where* it was computed (worker, retry, journal replay) never changes
    its bits.

    Args:
        setup: The calibrated experiment setup shared by every cell.
        cells: The grid to execute.
        workers: Process count for the fan-out; ``0``/``1`` runs
            sequentially in-process.
        timeout_s: Wall-clock budget per cell attempt (parallel path
            only — a single-process sweep cannot preempt itself);
            ``None`` waits forever.
        max_attempts: Executions allowed per cell before it surfaces as
            a :class:`CellFailure`.
        backoff_s: Base of the exponential retry backoff.
        journal_path: JSONL checkpoint file; every resolved cell is
            appended and fsynced. Required for ``run(resume=True)``.
    """

    def __init__(
        self,
        setup: ExperimentSetup,
        cells: "Sequence[SweepCell]",
        workers: int = 0,
        timeout_s: "float | None" = None,
        max_attempts: int = 3,
        backoff_s: float = 0.5,
        journal_path: "str | None" = None,
    ) -> None:
        if workers < 0:
            raise SimulationError("workers must be non-negative")
        if timeout_s is not None and timeout_s <= 0.0:
            raise SimulationError("timeout_s must be positive")
        if max_attempts < 1:
            raise SimulationError("max_attempts must be at least 1")
        if backoff_s < 0.0:
            raise SimulationError("backoff_s must be non-negative")
        self._setup = setup
        self._cells = tuple(cells)
        self._workers = workers
        self._timeout_s = timeout_s
        self._max_attempts = max_attempts
        self._backoff_s = backoff_s
        self._journal_path = journal_path

    @property
    def cells(self) -> "tuple[SweepCell, ...]":
        """The grid to execute."""
        return self._cells

    def run(self, resume: bool = False) -> SweepResult:
        """Execute every cell and return the assembled result.

        Args:
            resume: Replay resolved cells from the journal instead of
                re-executing them (requires ``journal_path``; a missing
                journal file simply means nothing is resolved yet).
        """
        if not self._cells:
            raise SimulationError("empty sweep grid")
        outcomes: "dict[int, _Outcome]" = {}
        if resume:
            if self._journal_path is None:
                raise SweepExecutionError(
                    "resume=True needs a journal_path to resume from"
                )
            if os.path.exists(self._journal_path):
                outcomes = _Journal.load(self._journal_path, self._cells)
        pending = [
            i for i in range(len(self._cells)) if i not in outcomes
        ]
        journal = (
            _Journal(self._journal_path)
            if self._journal_path is not None
            else None
        )
        try:
            if pending:
                pending = self._run_cohorts(pending, outcomes, journal)
            if pending:
                if self._workers <= 1:
                    self._run_sequential(pending, outcomes, journal)
                else:
                    self._run_parallel(pending, outcomes, journal)
        finally:
            if journal is not None:
                journal.close()
        metrics = tuple(outcomes[i].metric for i in range(len(self._cells)))
        failures = tuple(
            CellFailure(
                index=i,
                cell=self._cells[i],
                attempts=outcomes[i].attempts,
                error=outcomes[i].error or "unknown",
                invalid=outcomes[i].invalid,
            )
            for i in range(len(self._cells))
            if outcomes[i].error is not None
        )
        return SweepResult(
            cells=self._cells, metrics=metrics, failures=failures
        )

    # ------------------------------------------------------------------ #
    # Cohort batching                                                     #
    # ------------------------------------------------------------------ #

    def _run_cohorts(
        self,
        pending: "list[int]",
        outcomes: "dict[int, _Outcome]",
        journal: "_Journal | None",
    ) -> "list[int]":
        """Resolve cohort-backend cells as batched stacked runs.

        Cells with ``backend="cohort"`` that share a ``(window_s, dt)``
        grid — survival mode, a flat-topology scenario, default SOC, no
        fault plan — are compatible siblings: they stack into one
        :class:`~repro.sim.cohort.CohortSimulation` stepping every cell
        per kernel call. The batch runs in-process (it already amortises
        the grid across cells, so shipping it to one pool worker would
        serialise the sweep, not parallelise it) and each resolved cell
        is journalled exactly like a straight execution.

        The metric is a pure function of ``(setup, cell)`` either way:
        batched cells are bit-identical per cell to single-cell cohort
        runs (both proven against ``backend="vectorized"`` by
        ``tests/test_cohort.py``), so grouping never changes bits. If a
        batch fails for any reason its cells stay pending and fall back
        to the hardened per-cell path, where failures surface with the
        usual retry/:class:`CellFailure` semantics.

        Returns the still-pending indices (cells not resolved here).
        """
        groups: "dict[tuple, list[int]]" = {}
        for index in pending:
            cell = self._cells[index]
            if (
                cell.backend != "cohort"
                or cell.mode != "survival"
                or cell.scenario is None
                or cell.scenario.placement is not None
                or cell.fault_plan is not None
                or cell.initial_battery_soc != 1.0
            ):
                continue
            groups.setdefault(
                (cell.window_s, cell.dt, cell.kernels), []
            ).append(index)
        resolved: "set[int]" = set()
        for members_idx in groups.values():
            if len(members_idx) < 2:
                continue  # the per-cell path is already a width-1 cohort
            first = self._cells[members_idx[0]]
            members = [
                CohortMember(
                    scheme=self._cells[i].scheme,
                    scenario=self._cells[i].scenario,
                    seed=self._cells[i].seed,
                    grid_plan=self._cells[i].grid_plan,
                )
                for i in members_idx
            ]
            try:
                results = run_survival_cohort(
                    self._setup,
                    members,
                    window_s=first.window_s,
                    dt=first.dt,
                    kernels=first.kernels,
                )
            except Exception:
                # Batch-level failure: leave every member pending so the
                # per-cell path reproduces (and properly classifies) the
                # error, or succeeds where the batch could not.
                continue
            for index, result in zip(members_idx, results):
                outcome = _Outcome(
                    metric=result.survival_or_window(),
                    attempts=1,
                    error=None,
                )
                self._resolve(index, outcome, outcomes, journal)
                resolved.add(index)
        return [i for i in pending if i not in resolved]

    # ------------------------------------------------------------------ #
    # Execution paths                                                     #
    # ------------------------------------------------------------------ #

    def _resolve(
        self,
        index: int,
        outcome: _Outcome,
        outcomes: "dict[int, _Outcome]",
        journal: "_Journal | None",
    ) -> None:
        outcome.done = True
        outcomes[index] = outcome
        if journal is not None:
            journal.record(index, self._cells[index], outcome)

    def _run_sequential(
        self,
        pending: "list[int]",
        outcomes: "dict[int, _Outcome]",
        journal: "_Journal | None",
    ) -> None:
        """In-process execution (also the no-pool fallback path)."""
        for index in pending:
            outcome = _Outcome()
            while True:
                outcome.attempts += 1
                try:
                    outcome.metric = execute_cell(
                        self._setup, self._cells[index]
                    )
                    outcome.error = None
                    break
                except ReproError as exc:
                    # Deterministic rejection — retrying cannot help.
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    outcome.invalid = True
                    break
                except Exception as exc:  # environmental — retry
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    if outcome.attempts >= self._max_attempts:
                        break
                    time.sleep(_backoff_jitter_s(
                        index, outcome.attempts, self._backoff_s
                    ))
            self._resolve(index, outcome, outcomes, journal)

    def _run_parallel(
        self,
        pending: "list[int]",
        outcomes: "dict[int, _Outcome]",
        journal: "_Journal | None",
    ) -> None:
        """Pool execution with timeouts, retries and pool rebuilds."""
        try:
            pool = ProcessPoolExecutor(max_workers=self._workers)
        except Exception:
            # No pool in this environment (fork disabled, rlimits, …):
            # degrade to the sequential path rather than failing the
            # whole campaign.
            self._run_sequential(pending, outcomes, journal)
            return
        states = {index: _Outcome() for index in pending}
        queue = list(pending)
        try:
            while queue:
                jobs = {
                    index: pool.submit(
                        _execute_in_worker, self._setup, self._cells[index]
                    )
                    for index in queue
                }
                requeue: "list[int]" = []
                pool_dead = False
                for index in queue:
                    outcome = states[index]
                    if pool_dead:
                        # Harvest results that finished before the pool
                        # died; everything else goes back in the queue
                        # without burning one of its attempts.
                        future = jobs[index]
                        if future.done() and future.exception() is None:
                            outcome.attempts += 1
                            outcome.metric = future.result()
                            outcome.error = None
                            self._resolve(index, outcome, outcomes, journal)
                        else:
                            requeue.append(index)
                        continue
                    outcome.attempts += 1
                    try:
                        outcome.metric = jobs[index].result(self._timeout_s)
                        outcome.error = None
                        self._resolve(index, outcome, outcomes, journal)
                    except ReproError as exc:
                        outcome.error = f"{type(exc).__name__}: {exc}"
                        outcome.invalid = True
                        self._resolve(index, outcome, outcomes, journal)
                    except FutureTimeoutError:
                        outcome.error = (
                            f"timed out after {self._timeout_s}s"
                        )
                        # The wedged worker cannot be cancelled — kill
                        # the pool and rebuild for the survivors.
                        self._kill_pool(pool)
                        pool_dead = True
                        if outcome.attempts >= self._max_attempts:
                            self._resolve(index, outcome, outcomes, journal)
                        else:
                            requeue.append(index)
                    except BrokenProcessPool:
                        outcome.error = "worker process died"
                        pool_dead = True
                        if outcome.attempts >= self._max_attempts:
                            self._resolve(index, outcome, outcomes, journal)
                        else:
                            requeue.append(index)
                    except Exception as exc:  # non-Repro worker error
                        outcome.error = f"{type(exc).__name__}: {exc}"
                        if outcome.attempts >= self._max_attempts:
                            self._resolve(index, outcome, outcomes, journal)
                        else:
                            requeue.append(index)
                if pool_dead:
                    pool = ProcessPoolExecutor(max_workers=self._workers)
                if requeue:
                    attempt = max(states[i].attempts for i in requeue)
                    time.sleep(_backoff_jitter_s(
                        requeue[0], max(attempt, 1), self._backoff_s
                    ))
                queue = requeue
        finally:
            self._kill_pool(pool)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even when a worker is wedged mid-cell."""
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
