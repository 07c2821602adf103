"""Snapshot round-trips over a small (4-rack) constant-workload cluster.

* **Snapshot round-trips.** A run paused by ``run_prefix``, checkpointed
  with ``snapshot()``, restored into an *independent* simulation and
  finished with ``resume_segments()`` must be bit-identical to the same
  schedule run unbroken — paused mid-attack, mid-fault-window and while
  breakers are actively heating, on both backends.
* **Hypothesis toggles.** ``run_toggles`` from the differential harness
  switches backend and fork-vs-straight execution at random; every
  combination must reproduce the plain per-step pipeline of the same
  backend exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attack import Attacker, SpikeTrainConfig, VirusKind
from repro.config import ClusterConfig, DataCenterConfig
from repro.defense import SCHEMES
from repro.errors import SimulationError
from repro.faults import FaultPlan, TelemetryNoise
from repro.sim import DataCenterSimulation
from repro.sim.datacenter import SNAPSHOT_VERSION, SimSnapshot
from repro.sim.runner import Segment
from repro.workload import UtilizationTrace

from .differential import (
    RunToggles,
    assert_results_identical,
    run_toggles,
)

RACKS = 4
DT_S = 1.0
RECORD_EVERY = 20
DURATION_S = 600.0
#: Attack onset for the attacked runs — late enough that a fork can
#: land on either side of it.
ONSET_S = 300.0

BACKENDS = ("scalar", "vectorized")


def _trace(util: float) -> UtilizationTrace:
    """A flat trace: constant utilisation over the whole horizon."""
    return UtilizationTrace(
        np.full((3, RACKS * 10), util), interval_s=600.0
    )


def _attacker(start_s: float, nodes: "tuple[int, ...]" = (0, 1, 2, 3, 4, 5)):
    return Attacker(
        nodes=nodes,
        kind=VirusKind.CPU,
        spikes=SpikeTrainConfig(
            width_s=4.0, rate_per_min=6.0, baseline_util=0.15
        ),
        start_s=start_s,
        autonomy_estimate_s=120.0,
        seed=1,
    )


def _sim(
    scheme: str = "Conv",
    *,
    backend: str = "vectorized",
    attacker: "Attacker | None" = None,
    fault_plan: "FaultPlan | None" = None,
    util: float = 0.30,
    repair_time_s: "float | None" = None,
) -> DataCenterSimulation:
    return DataCenterSimulation(
        DataCenterConfig(cluster=ClusterConfig(racks=RACKS)),
        _trace(util),
        SCHEMES[scheme],
        attacker=attacker,
        backend=backend,
        fault_plan=fault_plan,
        repair_time_s=repair_time_s,
    )


def _run(sim: DataCenterSimulation):
    return sim.run(DURATION_S, DT_S, record_every=RECORD_EVERY)


def _fork_run(sim: DataCenterSimulation, pause_at_s: float):
    """Pause at ``pause_at_s``, snapshot, restore and finish the copy."""
    segment = Segment(
        start_s=0.0, end_s=DURATION_S, dt=DT_S, record_every=RECORD_EVERY
    )
    sim.run_prefix([segment], pause_at_s=pause_at_s)
    restored = DataCenterSimulation.restore(sim.snapshot())
    assert restored is not sim
    return restored, restored.resume_segments()


# ---------------------------------------------------------------------- #
# Snapshot round-trips                                                    #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_roundtrip_mid_attack(backend: str) -> None:
    """Pause inside the attack window; the restored copy finishes
    bit-identically to the unbroken run."""
    straight = _run(_sim(backend=backend, attacker=_attacker(ONSET_S)))
    sim = _sim(backend=backend, attacker=_attacker(ONSET_S))
    _, forked = _fork_run(sim, pause_at_s=ONSET_S + 60.0)
    assert_results_identical(f"mid-attack fork [{backend}]", straight, forked)
    # The pause genuinely fell mid-attack: spikes landed on both sides.
    assert straight.attack_start_s == ONSET_S


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_roundtrip_mid_fault_window(backend: str) -> None:
    """Pause while a noise fault is live: the injector state *and* its
    RNG stream must survive the pickle round-trip exactly."""
    plan = FaultPlan(
        specs=(
            TelemetryNoise(start_s=200.0, end_s=400.0, sigma_w=300.0),
        ),
        seed=5,
    )
    def build():
        return _sim(
            "uDEB", backend=backend, attacker=_attacker(ONSET_S),
            fault_plan=plan,
        )

    straight = _run(build())
    sim = build()
    restored, forked = _fork_run(sim, pause_at_s=300.0)
    assert_results_identical(
        f"mid-fault fork [{backend}]", straight, forked
    )
    assert {"telemetry-noise"} <= set(straight.fault_counts)
    # Both the injected and the cleared edge made it into the fork's
    # stream — the window straddled the pause.
    fault_names = [type(e).__name__ for e in forked.faults]
    assert "FaultInjected" in fault_names and "FaultCleared" in fault_names


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_roundtrip_mid_breaker_heating(backend: str) -> None:
    """Pause while breakers are accumulating trip heat mid-overload."""
    def build():
        return _sim(
            backend=backend,
            attacker=_attacker(100.0, nodes=tuple(range(8))),
            util=0.55,
            repair_time_s=120.0,
        )

    straight = _run(build())
    sim = build()
    segment = Segment(
        start_s=0.0, end_s=DURATION_S, dt=DT_S, record_every=RECORD_EVERY
    )
    # Pause during the Phase-I sustained drain, when the victim rack's
    # breaker is integrating heat but has not yet tripped.
    sim.run_prefix([segment], pause_at_s=130.0)
    restored = DataCenterSimulation.restore(sim.snapshot())
    assert np.any(np.asarray(restored.breakers.heat) > 0.0), (
        "the pause point must land inside an active heating ramp for "
        "this test to mean anything"
    )
    forked = restored.resume_segments()
    assert_results_identical(
        f"mid-heating fork [{backend}]", straight, forked
    )
    assert straight.trips, "the overload was expected to trip eventually"


def test_snapshot_version_and_pause_errors() -> None:
    sim = _sim()
    with pytest.raises(SimulationError, match="version"):
        DataCenterSimulation.restore(
            SimSnapshot(version=SNAPSHOT_VERSION + 1, payload=b"")
        )
    # Version-1 payloads pickled an older simulation layout; they must
    # be refused before unpickling, not loaded.
    assert SNAPSHOT_VERSION == 2
    with pytest.raises(SimulationError, match="version 1 unsupported"):
        DataCenterSimulation.restore(
            SimSnapshot(version=1, payload=b"")
        )
    with pytest.raises(SimulationError, match="no paused run"):
        sim.resume_segments()
    segment = Segment(
        start_s=0.0, end_s=DURATION_S, dt=DT_S, record_every=RECORD_EVERY
    )
    sim.run_prefix([segment], pause_at_s=100.0)
    with pytest.raises(SimulationError, match="already pending"):
        sim.run_prefix([segment], pause_at_s=200.0)
    with pytest.raises(SimulationError, match="step boundary"):
        _sim().run_prefix([segment], pause_at_s=100.25)


# ---------------------------------------------------------------------- #
# Hypothesis: every backend x fork combination reproduces the pipeline   #
# ---------------------------------------------------------------------- #

TOGGLE_STEPS = int(DURATION_S / DT_S)

#: Plain per-step straight runs, one per (scheme, backend) — the fixed
#: reference every toggled combination must reproduce bit-for-bit.
_REFERENCES: "dict[tuple[str, str], object]" = {}


def _reference(scheme: str, backend: str):
    key = (scheme, backend)
    if key not in _REFERENCES:
        _REFERENCES[key] = _run(
            _sim(scheme, backend=backend, attacker=_attacker(ONSET_S))
        )
    return _REFERENCES[key]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    toggles=run_toggles(max_fork_step=TOGGLE_STEPS),
    scheme=st.sampled_from(("Conv", "PS", "uDEB", "PAD")),
)
def test_fast_path_toggles_match_reference(
    toggles: RunToggles, scheme: str
) -> None:
    """Backend x fork-vs-straight, drawn at random, all publish the
    reference run of the same backend exactly."""
    sim = _sim(
        scheme, backend=toggles.backend, attacker=_attacker(ONSET_S)
    )
    if toggles.fork_step is None:
        candidate = _run(sim)
    else:
        _, candidate = _fork_run(sim, pause_at_s=toggles.fork_step * DT_S)
    assert_results_identical(
        f"toggles {toggles}", _reference(scheme, toggles.backend), candidate
    )
