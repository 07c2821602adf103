"""Smoke test of the benchmark itself: every workload, both modes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For each workload it runs ``run.py`` traced once and untraced once per
set-up seed (the default and the held-out one), with one pass each, and
asserts that:

* the run exits 0 and reports ``correct`` with no failed unit, so every
  pass matched the committed reference of its set-up seed;
* every named metric is present, with its unit;
* the workload engaged the mechanism it was chosen for (no vacuous
  workloads), as checked on the traced passes: ``paper-cell`` ran every
  cell alone, ``stacked-sweep`` batched cells and made fewer than one
  dispatch call per cell-step, ``frontier-search`` pruned candidates,
  forked cells and ran the grid stage, ``fleet-1024`` ran the fault stage
  and the mid-tier PDU breakers.

Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import DEFAULT_SETUP_SEED, HELD_OUT_SETUP_SEED, OUT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, setup_seed: int) -> "tuple[dict, dict]":
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--setup-seed", str(setup_seed),
    ]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=180, check=False)
    label = f"{workload} trace={trace} setup-seed={setup_seed}"
    if done.returncode != 0:
        raise AssertionError(f"{label}: exit {done.returncode}\n"
                             f"{done.stdout[-3000:]}{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report_path = os.path.join(OUT, f"{workload}-seed1-trace{trace}.json")
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    return result, report


def _check(workload: str, trace: int, setup_seed: int) -> None:
    result, report = _run(workload, trace, setup_seed)
    label = f"{workload} trace={trace} setup-seed={setup_seed}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    expected = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (label, set(metrics) ^ set(expected))
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (label, name)
        assert isinstance(metrics[name]["value"], (int, float)), (label, name)
    # run.py's engagement checks (metrics.engagement) ran on the traced
    # passes; the report lists each by name.
    assert report["checks"] or not trace, label
    assert all(report["checks"].values()), (label, report["checks"])
    print(f"ok  {label}", flush=True)


def main() -> int:
    for workload in WORKLOADS:
        _check(workload, 1, DEFAULT_SETUP_SEED)
        for seed in (DEFAULT_SETUP_SEED, HELD_OUT_SETUP_SEED):
            _check(workload, 0, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
