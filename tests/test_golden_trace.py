"""Golden-trace regression: frozen PAD runs, attacked and sagged.

Two short PAD runs are frozen under ``tests/data/``: the original
attacked run (``golden_pad_attack.json``) and a reserve-guarded
attack-during-sag composition (``golden_sag_ride_through.json``) — the
recorder series, the typed event streams (grid events included), the
work integrals and the final per-rack battery SOC. Any change to the
physics, the dispatch pipeline, or the kernels that moves these numbers
past 1e-7 relative fails here — on *every* backend (scalar, vectorized
and the stacked cohort), which ties the scalar oracle, the vectorized
kernels and the batched multi-cell path to the same frozen history.

Regenerate the fixtures after an intentional physics change with::

    PYTHONPATH=src python -m tests.test_golden_trace
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.attack.scenario import standard_scenarios
from repro.experiments.common import run_survival, standard_setup

FIXTURE = Path(__file__).parent / "data" / "golden_pad_attack.json"
SAG_FIXTURE = (
    Path(__file__).parent / "data" / "golden_sag_ride_through.json"
)
RTOL = 1e-7
WINDOW_S = 90.0
SAG_WINDOW_S = 150.0
RECORD_EVERY = 10


def _run(backend: str, kernels: str = "numpy"):
    setup = standard_setup()
    scenario = standard_scenarios()[0]
    return run_survival(
        setup,
        "PAD",
        scenario,
        window_s=WINDOW_S,
        record_every=RECORD_EVERY,
        backend=backend,
        kernels=kernels,
    )


def _run_sag(backend: str, kernels: str = "numpy"):
    """A reserve-guarded PAD run with a targeted sag over the attack."""
    from dataclasses import replace

    from repro.experiments.common import ExperimentSetup
    from repro.grid import GridPlan, ReservePolicy, VoltageSag

    setup = standard_setup()
    t0 = setup.attack_time_s
    guarded = ExperimentSetup(
        config=replace(
            setup.config,
            reserve=ReservePolicy(ride_through_floor_soc=0.6),
        ),
        trace=setup.trace,
        attack_time_s=t0,
    )
    plan = GridPlan(specs=(
        VoltageSag(
            start_s=t0 + 30.0, end_s=t0 + 120.0, depth=0.35, racks=(1, 2)
        ),
    ))
    scenario = replace(
        standard_scenarios()[0], start_s=20.0, name="golden-sag"
    )
    return run_survival(
        guarded,
        "PAD",
        scenario,
        window_s=SAG_WINDOW_S,
        record_every=RECORD_EVERY,
        backend=backend,
        grid_plan=plan,
        kernels=kernels,
    )


def _summary(result) -> dict:
    return {
        "schema": 1,
        "scheme": result.scheme,
        "end_s": result.end_s,
        "attack_start_s": result.attack_start_s,
        "delivered_work": result.delivered_work,
        "demanded_work": result.demanded_work,
        "trip_times_s": [trip.time_s for trip in result.trips],
        "events": [
            [type(event).__name__, event.time_s] for event in result.events
        ],
        "grid_events": [
            [type(event).__name__, event.time_s, event.event,
             list(event.racks)]
            for event in result.grid
        ],
        "series": {
            channel: result.recorder.series(channel).tolist()
            for channel in result.recorder.channels
        },
        "final_rack_soc": result.recorder.matrix("rack_soc")[-1].tolist(),
    }


def _assert_matches(golden: dict, summary: dict) -> None:
    assert summary["scheme"] == golden["scheme"]
    assert summary["end_s"] == golden["end_s"]
    assert summary["attack_start_s"] == golden["attack_start_s"]
    assert summary["events"] == golden["events"]
    if "grid_events" in golden:
        assert summary["grid_events"] == golden["grid_events"]
    np.testing.assert_allclose(
        summary["trip_times_s"], golden["trip_times_s"], rtol=RTOL
    )
    for key in ("delivered_work", "demanded_work"):
        np.testing.assert_allclose(
            summary[key], golden[key], rtol=RTOL, err_msg=key
        )
    assert sorted(summary["series"]) == sorted(golden["series"])
    for channel, values in golden["series"].items():
        np.testing.assert_allclose(
            summary["series"][channel],
            values,
            rtol=RTOL,
            atol=1e-12,
            err_msg=f"series:{channel}",
        )
    np.testing.assert_allclose(
        summary["final_rack_soc"],
        golden["final_rack_soc"],
        rtol=RTOL,
        err_msg="final_rack_soc",
    )


BACKEND_CASES = [
    ("scalar", "numpy"),
    ("vectorized", "numpy"),
    # The stacked backend answers to the same frozen history as the
    # per-cell pipelines.
    ("cohort", "numpy"),
    # The compiled kernel tier is a bitwise drop-in on every backend —
    # including the scalar one, where it must fall through untouched.
    ("scalar", "compiled"),
    ("vectorized", "compiled"),
    ("cohort", "compiled"),
]
#: Test ids keep their historical ``<backend>-False-<kernels>`` form
#: (the middle field was a per-cell option that no longer exists), so
#: recorded test selections stay valid.
CASE_IDS = [f"{backend}-False-{kernels}" for backend, kernels in BACKEND_CASES]


@pytest.mark.parametrize("backend,kernels", BACKEND_CASES, ids=CASE_IDS)
def test_pad_attack_matches_golden_trace(backend: str, kernels: str) -> None:
    """The frozen history holds on every backend and kernel tier."""
    if not FIXTURE.exists():
        pytest.fail(
            f"missing fixture {FIXTURE}; regenerate with "
            "`PYTHONPATH=src python -m tests.test_golden_trace`"
        )
    golden = json.loads(FIXTURE.read_text())
    _assert_matches(golden, _summary(_run(backend, kernels)))


@pytest.mark.parametrize("backend,kernels", BACKEND_CASES, ids=CASE_IDS)
def test_sag_ride_through_matches_golden_trace(
    backend: str, kernels: str
) -> None:
    """The frozen attack-during-sag history — reserve partition, grid
    event stream included — holds on every backend and kernel tier."""
    if not SAG_FIXTURE.exists():
        pytest.fail(
            f"missing fixture {SAG_FIXTURE}; regenerate with "
            "`PYTHONPATH=src python -m tests.test_golden_trace`"
        )
    golden = json.loads(SAG_FIXTURE.read_text())
    summary = _summary(_run_sag(backend, kernels))
    assert golden["grid_events"], "sag fixture must freeze grid events"
    _assert_matches(golden, summary)


def _write_fixture() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    summary = _summary(_run("vectorized"))
    FIXTURE.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
    sag = _summary(_run_sag("vectorized"))
    SAG_FIXTURE.write_text(json.dumps(sag, indent=1) + "\n")
    print(f"wrote {SAG_FIXTURE}")


if __name__ == "__main__":
    _write_fixture()
