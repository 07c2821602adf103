"""Differential equivalence: vectorized kernels vs their scalar oracles.

Every array kernel added for the fleet-level hot path is replayed here
against the scalar implementation it replaces, over Hypothesis-generated
schedules (benign traces, Phase-I drain ramps, Phase-II hidden spikes,
rest periods, mid-run breaker re-rating), asserting agreement on every
observable after every step:

* :class:`~repro.battery.fleet_kernels.KiBaMFleetState`
  vs per-rack :class:`~repro.battery.kibam.KiBaMBattery`;
* :class:`~repro.battery.fleet_kernels.VectorBatteryFleet`
  vs :class:`~repro.battery.fleet.BatteryFleet` of lead-acid packs
  (LVD, C-rate ceiling, charge efficiency, aging counters);
* :class:`~repro.battery.fleet_kernels.SupercapFleetState` (via
  :class:`~repro.core.udeb.VectorUdebShaver`) vs the per-bank shaver;
* :class:`~repro.power.breaker_kernels.BreakerBankState`
  vs :class:`~repro.power.breaker_kernels.ScalarBreakerBank`
  (heat, latch state, trip times, trip events);
* both charging policies across both fleet backends;
* whole :class:`~repro.sim.datacenter.DataCenterSimulation` runs for all
  six Table-III schemes, comparing the recorder series and the published
  event stream between backends.

The tolerance is 1e-9 relative (``tests.differential.RTOL``); the
kernels are written to agree bit-for-bit and the tolerance is a backstop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attack import Attacker, SpikeTrainConfig, VirusKind
from repro.attack.scenario import standard_scenarios
from repro.battery.fleet import BatteryFleet
from repro.battery.fleet_kernels import KiBaMFleetState, VectorBatteryFleet
from repro.battery.charger import OfflineCharger, OnlineCharger
from repro.battery.kibam import KiBaMBattery
from repro.config import (
    BatteryConfig,
    BreakerConfig,
    ClusterConfig,
    DataCenterConfig,
    SupercapConfig,
)
from repro.core.udeb import UdebShaver, VectorUdebShaver
from repro.defense import SCHEMES
from repro.experiments.common import SCHEME_ORDER, run_survival, standard_setup
from repro.power.breaker_kernels import BreakerBankState, ScalarBreakerBank
from repro.sim import DataCenterSimulation
from repro.workload import UtilizationTrace

from .differential import (
    BreakerSchedule,
    CellSchedule,
    ChargerSchedule,
    FleetSchedule,
    LvdCase,
    SupercapSchedule,
    assert_agree,
    assert_same_mask,
    breaker_schedules,
    cell_schedules,
    charger_schedules,
    fault_plans,
    fleet_schedules,
    lvd_cases,
    supercap_schedules,
)

#: One shared settings block: the acceptance bar is >= 200 examples per
#: kernel; deadlines are off because example cost varies with schedule
#: length, not with any defect worth flagging.
DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

BATTERY = BatteryConfig()
SUPERCAP = SupercapConfig()
BREAKER_SHAPE = BreakerConfig()


# ---------------------------------------------------------------------- #
# KiBaM two-well kernel                                                   #
# ---------------------------------------------------------------------- #


@DIFFERENTIAL
@given(schedule=cell_schedules())
def test_kibam_fleet_matches_scalar_cells(schedule: CellSchedule) -> None:
    cells = [
        KiBaMBattery(
            BATTERY.capacity_j,
            c=BATTERY.kibam_c,
            k=BATTERY.kibam_k,
            initial_soc=soc,
        )
        for soc in schedule.initial_socs
    ]
    fleet = KiBaMFleetState(
        BATTERY.capacity_j,
        BATTERY.kibam_c,
        BATTERY.kibam_k,
        schedule.racks,
        initial_soc=np.asarray(schedule.initial_socs),
    )
    dt = schedule.dt
    for mode, watts in schedule.steps:
        vec = np.asarray(watts)
        if mode == "discharge":
            scalar_out = [c.discharge(w, dt) for c, w in zip(cells, watts)]
            assert_agree("delivered", scalar_out, fleet.discharge(vec, dt))
        elif mode == "charge":
            scalar_in = [c.charge(w, dt) for c, w in zip(cells, watts)]
            assert_agree("stored", scalar_in, fleet.charge(vec, dt))
        else:
            for cell in cells:
                cell.rest(dt)
            fleet.rest(dt)
        assert_agree(
            "available_j", [c.available_j for c in cells], fleet.available_j
        )
        assert_agree("bound_j", [c.bound_j for c in cells], fleet.bound_j)
        assert_agree("soc", [c.soc for c in cells], fleet.soc)
        assert_agree(
            "max_discharge",
            [c.max_discharge_power(dt) for c in cells],
            fleet.max_discharge_power(dt),
        )
        assert_agree(
            "max_charge",
            [c.max_charge_power(dt) for c in cells],
            fleet.max_charge_power(dt),
        )


@DIFFERENTIAL
@given(schedule=cell_schedules())
def test_kibam_fleet_matches_scalar_operand_expressions(
    schedule: CellSchedule,
) -> None:
    """Bit for bit against the same expressions with Python-float
    coefficients: the kernel takes them as per-rack vectors, and reuses
    the deliverable-power computation's ``y1 * e`` in the step."""
    k, c, dt = BATTERY.kibam_k, BATTERY.kibam_c, schedule.dt
    fleet = KiBaMFleetState(
        BATTERY.capacity_j, c, k, schedule.racks,
        initial_soc=np.asarray(schedule.initial_socs),
    )
    y1, y2 = fleet.available_j.copy(), fleet.bound_j.copy()
    cap_available = c * fleet.capacity_j
    cap_bound = (1.0 - c) * fleet.capacity_j
    sign = {"discharge": 1.0, "charge": -1.0, "rest": 0.0}
    for index, (mode, watts) in enumerate(schedule.steps):
        e = math.exp(-k * dt)
        y0 = y1 + y2
        if index % 2 == 0:  # odd steps run without the cached product
            coeff_a = y1 * e + y0 * c * (1.0 - e)
            coeff_b = (1.0 - e) / k + c * (k * dt - 1.0 + e) / k
            limit = np.maximum(0.0, coeff_a / coeff_b)
            assert fleet.max_discharge_power(dt).tobytes() == limit.tobytes()
        power = sign[mode] * np.asarray(watts)
        shape = (k * dt - 1.0 + e) / k
        y1_new = (
            y1 * e + (y0 * k * c - power) * (1.0 - e) / k
            - power * c * shape
        )
        y2_new = (
            y2 * e + y0 * (1.0 - c) * (1.0 - e)
            - power * (1.0 - c) * shape
        )
        y1 = np.minimum(np.maximum(y1_new, 0.0), cap_available)
        y2 = np.minimum(np.maximum(y2_new, 0.0), cap_bound)
        fleet.step(power, dt)
        assert fleet.available_j.tobytes() == y1.tobytes()
        assert fleet.bound_j.tobytes() == y2.tobytes()
        assert fleet.charge_j.tobytes() == (y1 + y2).tobytes()


# ---------------------------------------------------------------------- #
# Lead-acid fleet (LVD, C-rate, efficiency, aging)                        #
# ---------------------------------------------------------------------- #


def _compare_battery_fleets(
    scalar: BatteryFleet, vector: VectorBatteryFleet, dt: float
) -> None:
    assert_agree("soc", scalar.soc_vector(), vector.soc_vector())
    assert_agree(
        "charge_j", scalar.charge_vector_j(), vector.charge_vector_j()
    )
    assert_agree(
        "available_j", scalar.available_j_vector(), vector.available_j_vector()
    )
    assert_agree("bound_j", scalar.bound_j_vector(), vector.bound_j_vector())
    assert_same_mask("disconnected", scalar.disconnected, vector.disconnected)
    assert_agree(
        "max_discharge",
        scalar.max_discharge_vector(dt),
        vector.max_discharge_vector(dt),
    )
    assert_agree(
        "max_charge",
        scalar.max_charge_vector(dt),
        vector.max_charge_vector(dt),
    )
    assert_agree(
        "discharged_j", scalar.discharged_j_vector(), vector.discharged_j_vector()
    )
    assert_agree(
        "charged_j", scalar.charged_j_vector(), vector.charged_j_vector()
    )
    assert_same_mask(
        "deep_discharge_events",
        scalar.deep_discharge_events_vector(),
        vector.deep_discharge_events_vector(),
    )
    assert_agree("pool_soc", scalar.pool_soc, vector.pool_soc)
    assert_agree("total_charge_j", scalar.total_charge_j, vector.total_charge_j)


@DIFFERENTIAL
@given(schedule=fleet_schedules())
def test_battery_fleet_matches_scalar_packs(schedule: FleetSchedule) -> None:
    socs = list(schedule.initial_socs)
    scalar = BatteryFleet(
        BATTERY, schedule.racks, initial_soc=socs, keep_log=True
    )
    vector = VectorBatteryFleet(
        BATTERY, schedule.racks, initial_soc=socs, keep_log=True
    )
    dt = schedule.dt
    for index, (out, inn) in enumerate(schedule.steps):
        for at_step, fade in schedule.fades:
            if at_step == index:
                scalar.apply_capacity_fade(np.asarray(fade))
                vector.apply_capacity_fade(np.asarray(fade))
                _compare_battery_fleets(scalar, vector, dt)
        delivered_s = scalar.step(np.asarray(out), np.asarray(inn), dt, index * dt)
        delivered_v = vector.step(np.asarray(out), np.asarray(inn), dt, index * dt)
        assert_agree("delivered", delivered_s, delivered_v)
        _compare_battery_fleets(scalar, vector, dt)
    assert len(scalar.log) == len(vector.log)
    for entry_s, entry_v in zip(scalar.log, vector.log):
        assert entry_s.time_s == entry_v.time_s
        assert_agree("log.discharge_w", entry_s.discharge_w, entry_v.discharge_w)
        assert_agree("log.charge_w", entry_s.charge_w, entry_v.charge_w)
        assert_agree("log.soc", entry_s.soc, entry_v.soc)


@DIFFERENTIAL
@given(schedule=fleet_schedules())
def test_battery_fleet_reset_preserves_equivalence(
    schedule: FleetSchedule,
) -> None:
    """Reset mid-history: aging counters persist, charge state restores."""
    socs = list(schedule.initial_socs)
    scalar = BatteryFleet(BATTERY, schedule.racks, initial_soc=socs)
    vector = VectorBatteryFleet(BATTERY, schedule.racks, initial_soc=socs)
    dt = schedule.dt
    for index, (out, inn) in enumerate(schedule.steps):
        for at_step, fade in schedule.fades:
            if at_step == index:
                scalar.apply_capacity_fade(np.asarray(fade))
                vector.apply_capacity_fade(np.asarray(fade))
        scalar.step(np.asarray(out), np.asarray(inn), dt)
        vector.step(np.asarray(out), np.asarray(inn), dt)
    # Capacity damage survives reset on both backends; the post-reset
    # comparison below proves the faded packs refill identically.
    scalar.reset()
    vector.reset()
    _compare_battery_fleets(scalar, vector, dt)
    if schedule.steps:
        out, inn = schedule.steps[0]
        assert_agree(
            "post-reset delivered",
            scalar.step(np.asarray(out), np.asarray(inn), dt),
            vector.step(np.asarray(out), np.asarray(inn), dt),
        )
        _compare_battery_fleets(scalar, vector, dt)


@DIFFERENTIAL
@given(case=lvd_cases())
def test_lvd_shortcut_matches_general_update(case: LvdCase) -> None:
    """With every pack connected, the LVD update skips the closing test;
    it must latch exactly what the general update latches, on the step
    path (mask or none) and on the capacity-fade path."""
    mask = None if case.mask is None else np.array(case.mask)
    fade = np.asarray(case.fade)
    latched = []
    for any_disconnected in (False, True):
        fleet = VectorBatteryFleet(
            BATTERY, len(case.socs), initial_soc=list(case.socs)
        )
        assert not fleet.disconnected.any()
        fleet._update_lvd(mask, any_disconnected)
        stepped = (fleet.disconnected, fleet.deep_discharge_events_vector())
        faded = VectorBatteryFleet(
            BATTERY, len(case.socs), initial_soc=list(case.socs)
        )
        if any_disconnected:
            # The general branch, as apply_capacity_fade ran it before.
            faded.cells.apply_capacity_fade(fade)
            if (fade > 0.0).any():
                faded._update_lvd(fade > 0.0, True)
        else:
            faded.apply_capacity_fade(fade)
        latched.append((
            stepped,
            (faded.disconnected, faded.deep_discharge_events_vector()),
        ))
    for (shortcut, general) in zip(*latched):
        assert_same_mask("disconnected", general[0], shortcut[0])
        assert_same_mask("deep discharge events", general[1], shortcut[1])


# ---------------------------------------------------------------------- #
# Supercap fleet (uDEB)                                                   #
# ---------------------------------------------------------------------- #


@DIFFERENTIAL
@given(schedule=supercap_schedules())
def test_supercap_fleet_matches_scalar_banks(
    schedule: SupercapSchedule,
) -> None:
    scalar = UdebShaver(SUPERCAP, schedule.racks)
    vector = VectorUdebShaver(SUPERCAP, schedule.racks)
    dt = schedule.dt
    for kind, watts in schedule.steps:
        vec = np.asarray(watts)
        if kind == "shave":
            result_s = scalar.shave(vec, dt)
            result_v = vector.shave(vec, dt)
            assert_agree("shaved_w", result_s.shaved_w, result_v.shaved_w)
            assert_agree("unshaved_w", result_s.unshaved_w, result_v.unshaved_w)
        else:
            assert_agree(
                "recharge_w",
                scalar.recharge(vec, dt),
                vector.recharge(vec, dt),
            )
        assert_agree("soc", scalar.soc_vector(), vector.soc_vector())
        assert_same_mask(
            "shave_events",
            scalar.shave_events_vector(),
            vector.shave_events_vector(),
        )
        assert_agree(
            "shaved_j", scalar.shaved_j_vector(), vector.shaved_j_vector()
        )
        assert_agree("min_soc", scalar.min_soc, vector.min_soc)
        assert_agree("pool_soc", scalar.pool_soc, vector.pool_soc)


# ---------------------------------------------------------------------- #
# Breaker bank                                                            #
# ---------------------------------------------------------------------- #


@DIFFERENTIAL
@given(schedule=breaker_schedules())
def test_breaker_bank_matches_scalar_breakers(
    schedule: BreakerSchedule,
) -> None:
    ratings = np.asarray(schedule.ratings)
    scalar = ScalarBreakerBank(BREAKER_SHAPE, ratings)
    vector = BreakerBankState(BREAKER_SHAPE, ratings)
    dt = schedule.dt
    time_s = 0.0
    for kind, watts in schedule.steps:
        vec = np.asarray(watts)
        if kind == "ratings":
            scalar.set_ratings(vec)
            vector.set_ratings(vec)
        else:
            assert_agree(
                "time_to_trip",
                scalar.time_to_trip(vec),
                vector.time_to_trip(vec),
            )
            newly_s = scalar.step(vec, dt, time_s)
            newly_v = vector.step(vec, dt, time_s)
            assert newly_s == newly_v, (
                f"trip order diverged: scalar {newly_s}, vector {newly_v}"
            )
            time_s += dt
        assert_agree("rated_w", scalar.rated_w, vector.rated_w)
        assert_agree("heat", scalar.heat, vector.heat)
        assert_same_mask("tripped", scalar.tripped, vector.tripped)
        assert scalar.any_tripped == vector.any_tripped
        for index in range(len(scalar)):
            event_s = scalar.trip_event(index)
            event_v = vector.trip_event(index)
            assert (event_s is None) == (event_v is None)
            if event_s is not None and event_v is not None:
                assert_agree("trip time", event_s.time_s, event_v.time_s)
                assert_agree("trip power", event_s.power_w, event_v.power_w)
                assert_agree(
                    "trip ratio",
                    event_s.overload_ratio,
                    event_v.overload_ratio,
                )
                assert event_s.instantaneous == event_v.instantaneous


# ---------------------------------------------------------------------- #
# Charging policies across backends                                       #
# ---------------------------------------------------------------------- #


@DIFFERENTIAL
@given(schedule=charger_schedules())
@pytest.mark.parametrize("policy", ["online", "offline"])
def test_chargers_match_across_backends(
    policy: str, schedule: ChargerSchedule
) -> None:
    socs = list(schedule.initial_socs)
    fleets = {
        "scalar": BatteryFleet(BATTERY, schedule.racks, initial_soc=socs),
        "vectorized": VectorBatteryFleet(
            BATTERY, schedule.racks, initial_soc=socs
        ),
    }
    chargers = {
        backend: (
            OnlineCharger()
            if policy == "online"
            else OfflineCharger(recharge_soc=BATTERY.offline_recharge_soc)
        )
        for backend in fleets
    }
    dt = schedule.dt
    for headroom, active, discharge in schedule.steps:
        head = np.asarray(headroom)
        mask = np.asarray(active, dtype=bool)
        # Charging and discharging are mutually exclusive per rack in the
        # fleet contract; the dispatch pipeline enforces the same split.
        out = np.where(mask, 0.0, np.asarray(discharge))
        charges = {}
        for backend, fleet in fleets.items():
            charge = chargers[backend].fleet_charge_power(
                fleet, head, mask, dt
            )
            charges[backend] = charge
            fleet.step(out, charge, dt)
        assert_agree("charge_w", charges["scalar"], charges["vectorized"])
        _compare_battery_fleets(fleets["scalar"], fleets["vectorized"], dt)


# ---------------------------------------------------------------------- #
# End-to-end: whole simulation runs per scheme                            #
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("scheme", SCHEME_ORDER)
def test_simulation_backends_agree(scheme: str) -> None:
    """Scalar and vectorized full runs publish identical histories."""
    setup = standard_setup()
    scenario = standard_scenarios()[0]
    results = {
        backend: run_survival(
            setup,
            scheme,
            scenario,
            window_s=120.0,
            backend=backend,
        )
        for backend in ("scalar", "vectorized")
    }
    scalar, vector = results["scalar"], results["vectorized"]
    assert scalar.end_s == vector.end_s
    assert scalar.attack_start_s == vector.attack_start_s
    assert_agree("delivered_work", scalar.delivered_work, vector.delivered_work)
    assert_agree("demanded_work", scalar.demanded_work, vector.demanded_work)
    # Trips: same breakers at the same times for the same reasons.
    assert len(scalar.trips) == len(vector.trips)
    for trip_s, trip_v in zip(scalar.trips, vector.trips):
        assert_agree("trip time", trip_s.time_s, trip_v.time_s)
    # Events: same typed stream in the same publication order.
    stream_s = [(type(e).__name__, e.time_s) for e in scalar.events]
    stream_v = [(type(e).__name__, e.time_s) for e in vector.events]
    assert stream_s == stream_v
    # Recorder: every channel, step for step.
    assert scalar.recorder.channels == vector.recorder.channels
    assert scalar.recorder.vector_channels == vector.recorder.vector_channels
    for channel in scalar.recorder.channels:
        assert_agree(
            f"series:{channel}",
            scalar.recorder.series(channel),
            vector.recorder.series(channel),
        )
    for channel in scalar.recorder.vector_channels:
        assert_agree(
            f"matrix:{channel}",
            scalar.recorder.matrix(channel),
            vector.recorder.matrix(channel),
        )


# ---------------------------------------------------------------------- #
# End-to-end under fault plans                                            #
# ---------------------------------------------------------------------- #

#: Cluster width and horizon for the fault-plan differential runs. Small
#: on purpose: each Hypothesis example replays a whole simulation twice.
FAULT_RACKS = 4
FAULT_HORIZON_S = 300.0


def _fault_run(backend: str, scheme: str, plan) -> "object":
    config = DataCenterConfig(cluster=ClusterConfig(racks=FAULT_RACKS))
    trace = UtilizationTrace(
        np.full((8, FAULT_RACKS * 10), 0.55), interval_s=60.0
    )
    attacker = Attacker(
        nodes=(0, 1, 2, 3, 4, 5),
        kind=VirusKind.CPU,
        spikes=SpikeTrainConfig(
            width_s=4.0, rate_per_min=6.0, baseline_util=0.15
        ),
        start_s=60.0,
        autonomy_estimate_s=120.0,
        seed=1,
    )
    sim = DataCenterSimulation(
        config,
        trace,
        SCHEMES[scheme],
        attacker=attacker,
        backend=backend,
        fault_plan=plan,
    )
    return sim.run(duration_s=FAULT_HORIZON_S, dt=1.0, record_every=20)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    plan=fault_plans(racks=FAULT_RACKS, horizon_s=FAULT_HORIZON_S),
    scheme=st.sampled_from(("PAD", "vDEB", "uDEB", "PSPC")),
)
def test_simulation_backends_agree_under_faults(plan, scheme: str) -> None:
    """Whole attacked runs under arbitrary fault plans stay equivalent.

    The acceptance bar for the fault subsystem: scalar and vectorized
    backends agree on the SOC series, the trip list and the *complete*
    typed event stream — including every ``FaultInjected``/
    ``FaultCleared`` edge, in declaration order — under any valid
    combination of telemetry, sensor, comm, battery, FET and breaker
    faults.
    """
    scalar = _fault_run("scalar", scheme, plan)
    vector = _fault_run("vectorized", scheme, plan)
    assert scalar.end_s == vector.end_s
    # Fault accounting agrees exactly.
    assert scalar.fault_counts == vector.fault_counts
    # Events: same typed stream, same order, same fault labels and racks
    # (BreakerTripped carries rack_id, FaultEvents carry fault/racks).
    def fingerprint(events):
        return [
            (type(e).__name__, e.time_s, getattr(e, "fault", None),
             getattr(e, "racks", None), getattr(e, "rack_id", None))
            for e in events
        ]

    assert fingerprint(scalar.events) == fingerprint(vector.events)
    # Trips: same breakers at the same times.
    assert len(scalar.trips) == len(vector.trips)
    for trip_s, trip_v in zip(scalar.trips, vector.trips):
        assert_agree("trip time", trip_s.time_s, trip_v.time_s)
        assert_agree("trip power", trip_s.power_w, trip_v.power_w)
    # Recorder: every channel, step for step (SOC within 1e-9).
    assert scalar.recorder.channels == vector.recorder.channels
    assert scalar.recorder.vector_channels == vector.recorder.vector_channels
    for channel in scalar.recorder.channels:
        assert_agree(
            f"series:{channel}",
            scalar.recorder.series(channel),
            vector.recorder.series(channel),
        )
    for channel in scalar.recorder.vector_channels:
        assert_agree(
            f"matrix:{channel}",
            scalar.recorder.matrix(channel),
            vector.recorder.matrix(channel),
        )
