"""Grid-disturbance subsystem tests: specs, injection, reserve, shedding.

Covers the layers of the ``repro.grid`` stack:

* the declarative :class:`GridEventSpec`/:class:`GridPlan` layer (eager
  validation, rack normalisation, overlap rejection, picklability,
  deterministic labels);
* the overlap-rejection satellite shared with :class:`FaultPlan`;
* end-to-end injection through the step pipeline (typed grid events at
  window edges, sag feed transfer, brownout derating, regulation duty
  floors);
* the :class:`ReservePolicy` battery partition (defense clamp at the
  ride-through floor, breach events, graceful degradation) and the
  preference-directed Level-3 shedding it drives.
"""

import pickle

import numpy as np
import pytest

from repro.attack import Attacker, SpikeTrainConfig, VirusKind
from repro.config import ClusterConfig, DataCenterConfig, PolicyConfig
from repro.core.shedding import LoadShedder
from repro.defense import SCHEMES
from repro.errors import ConfigError, FaultInjectionError
from repro.faults import BatteryFade, FaultPlan, SocFreeze, TelemetryDropout
from repro.grid import (
    FrequencyRegulationDuty,
    GridPlan,
    ReservePolicy,
    UtilityBrownout,
    VoltageSag,
)
from repro.power.ups import CentralUps, CentralUpsConfig
from repro.sim import (
    DataCenterSimulation,
    GridEventCleared,
    GridEventStarted,
    ReserveBreached,
    RideThroughEngaged,
    Runner,
)
from repro.workload import UtilizationTrace


def flat_trace(util, machines=40, steps=200, interval_s=60.0):
    return UtilizationTrace(
        np.full((steps, machines), util), interval_s=interval_s
    )


def make_sim(scheme="PS", util=0.4, racks=4, attacker=None, **kwargs):
    config = kwargs.pop(
        "config", DataCenterConfig(cluster=ClusterConfig(racks=racks))
    )
    trace = flat_trace(util, machines=racks * 10)
    return DataCenterSimulation(
        config, trace, SCHEMES[scheme], attacker=attacker, **kwargs
    )


def spike_attacker(start=60.0):
    return Attacker(
        nodes=(0, 1, 2, 3, 4, 5),
        kind=VirusKind.CPU,
        spikes=SpikeTrainConfig(
            width_s=4.0, rate_per_min=6.0, baseline_util=0.15
        ),
        start_s=start,
        autonomy_estimate_s=120.0,
        seed=1,
    )


# ---------------------------------------------------------------------- #
# Spec / plan validation                                                  #
# ---------------------------------------------------------------------- #


class TestGridSpecValidation:
    def test_window_must_be_forward(self):
        with pytest.raises(ConfigError):
            VoltageSag(start_s=10.0, end_s=10.0, depth=0.2)
        with pytest.raises(ConfigError):
            UtilityBrownout(start_s=10.0, end_s=5.0, derate=0.2)
        with pytest.raises(ConfigError):
            VoltageSag(start_s=-1.0, end_s=5.0, depth=0.2)

    def test_parameter_ranges(self):
        for depth in (0.0, 1.0, -0.2):
            with pytest.raises(ConfigError):
                VoltageSag(start_s=0.0, end_s=1.0, depth=depth)
        for derate in (0.0, 1.0):
            with pytest.raises(ConfigError):
                UtilityBrownout(start_s=0.0, end_s=1.0, derate=derate)
        with pytest.raises(ConfigError):
            FrequencyRegulationDuty(start_s=0.0, end_s=1.0, power_w=0.0)
        with pytest.raises(ConfigError):
            FrequencyRegulationDuty(
                start_s=0.0, end_s=1.0, power_w=100.0, period_s=0.0
            )
        with pytest.raises(ConfigError):
            FrequencyRegulationDuty(
                start_s=0.0, end_s=1.0, power_w=100.0, duty=1.0
            )
        with pytest.raises(ConfigError):
            FrequencyRegulationDuty(
                start_s=0.0, end_s=1.0, power_w=100.0, floor_soc=1.0
            )

    def test_rack_normalisation(self):
        spec = VoltageSag(
            start_s=0.0, end_s=1.0, depth=0.2, racks=(3, 1, 3, 0)
        )
        assert spec.racks == (0, 1, 3)
        with pytest.raises(FaultInjectionError):
            VoltageSag(start_s=0.0, end_s=1.0, depth=0.2, racks=())

    def test_validate_for_cluster_width(self):
        spec = VoltageSag(start_s=0.0, end_s=1.0, depth=0.2, racks=(5,))
        spec.validate_for(6)
        with pytest.raises(ConfigError):
            spec.validate_for(4)
        with pytest.raises(ConfigError):
            GridPlan(specs=(spec,)).validate_for(4)

    def test_plan_rejects_non_specs(self):
        with pytest.raises(ConfigError):
            GridPlan(specs=("voltage-sag",))
        with pytest.raises(ConfigError):
            GridPlan(specs=(TelemetryDropout(start_s=0.0, end_s=1.0),))

    def test_plan_edges_windows_and_label(self):
        plan = GridPlan(specs=(
            VoltageSag(start_s=5.0, end_s=9.0, depth=0.25, racks=(1,)),
            FrequencyRegulationDuty(
                start_s=1.0, end_s=2.0, power_w=300.0
            ),
        ))
        assert plan.edge_times() == (1.0, 2.0, 5.0, 9.0)
        assert plan.windows() == [(5.0, 9.0), (1.0, 2.0)]
        assert len(plan) == 2
        assert plan.label() == "grid-sag0p25@5-9+freg300@1-2"
        assert GridPlan().label() == "grid-none"

    def test_plan_pickles_round_trip(self):
        plan = GridPlan(specs=(
            VoltageSag(start_s=0.0, end_s=9.0, depth=0.3, racks=(1, 2)),
            UtilityBrownout(start_s=20.0, end_s=30.0, derate=0.1),
        ))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_duty_phase_is_pure_clock_function(self):
        spec = FrequencyRegulationDuty(
            start_s=100.0, end_s=400.0, power_w=500.0,
            period_s=60.0, duty=0.5,
        )
        assert not spec.on_phase_at(99.0)       # before the window
        assert spec.on_phase_at(100.0)          # cycle starts on
        assert spec.on_phase_at(129.0)
        assert not spec.on_phase_at(130.0)      # off phase
        assert spec.on_phase_at(160.0)          # next cycle
        assert not spec.on_phase_at(400.0)      # window closed


# ---------------------------------------------------------------------- #
# Overlap rejection (shared with FaultPlan)                               #
# ---------------------------------------------------------------------- #


class TestOverlapRejection:
    def test_grid_same_kind_shared_racks_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            GridPlan(specs=(
                VoltageSag(start_s=0.0, end_s=10.0, depth=0.2, racks=(1,)),
                VoltageSag(start_s=5.0, end_s=15.0, depth=0.3, racks=(1, 2)),
            ))

    def test_grid_all_racks_conflicts_with_any_target(self):
        with pytest.raises(ConfigError, match="overlap"):
            GridPlan(specs=(
                VoltageSag(start_s=0.0, end_s=10.0, depth=0.2),
                VoltageSag(start_s=5.0, end_s=15.0, depth=0.3, racks=(3,)),
            ))

    def test_grid_disjoint_windows_or_racks_allowed(self):
        GridPlan(specs=(
            VoltageSag(start_s=0.0, end_s=10.0, depth=0.2, racks=(1,)),
            VoltageSag(start_s=10.0, end_s=20.0, depth=0.3, racks=(1,)),
        ))
        GridPlan(specs=(
            VoltageSag(start_s=0.0, end_s=10.0, depth=0.2, racks=(1,)),
            VoltageSag(start_s=5.0, end_s=15.0, depth=0.3, racks=(2,)),
        ))

    def test_grid_different_kinds_may_overlap(self):
        GridPlan(specs=(
            VoltageSag(start_s=0.0, end_s=10.0, depth=0.2),
            UtilityBrownout(start_s=5.0, end_s=15.0, derate=0.1),
            FrequencyRegulationDuty(
                start_s=0.0, end_s=20.0, power_w=300.0
            ),
        ))

    def test_fault_same_kind_shared_racks_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            FaultPlan(specs=(
                TelemetryDropout(start_s=0.0, end_s=10.0, racks=(1,)),
                TelemetryDropout(start_s=5.0, end_s=15.0),
            ))

    def test_fault_disjoint_same_kind_allowed(self):
        FaultPlan(specs=(
            TelemetryDropout(start_s=0.0, end_s=10.0, racks=(1,)),
            TelemetryDropout(start_s=10.0, end_s=20.0, racks=(1,)),
        ))
        FaultPlan(specs=(
            SocFreeze(start_s=0.0, end_s=10.0, racks=(0,)),
            SocFreeze(start_s=5.0, end_s=15.0, racks=(1,)),
        ))

    def test_fault_one_shots_exempt(self):
        FaultPlan(specs=(
            BatteryFade(at_s=5.0, fade=0.2, racks=(1,)),
            BatteryFade(at_s=5.0, fade=0.1, racks=(1,)),
        ))


# ---------------------------------------------------------------------- #
# UPS transfer semantics                                                  #
# ---------------------------------------------------------------------- #


class TestUpsGridStep:
    def test_transfer_and_return(self):
        ups = CentralUps(
            CentralUpsConfig(rated_w=10_000.0), initial_soc=1.0
        )
        assert not ups.on_battery
        served = ups.grid_step(5000.0, 1.0, utility_available=False)
        assert ups.on_battery
        assert served == 5000.0        # autonomy covers the load
        assert ups.soc < 1.0           # out of the battery string
        ups.grid_step(5000.0, 1.0, utility_available=True)
        assert not ups.on_battery

    def test_battery_exhaustion_blacks_out_as_one_unit(self):
        ups = CentralUps(
            CentralUpsConfig(rated_w=10_000.0, autonomy_s=60.0),
            initial_soc=0.01,
        )
        served = ups.grid_step(10_000.0, 600.0, utility_available=False)
        assert served < 10_000.0
        assert ups.soc == 0.0


# ---------------------------------------------------------------------- #
# End-to-end injection through the pipeline                               #
# ---------------------------------------------------------------------- #


class TestGridInjection:
    def test_grid_events_publish_at_window_edges(self):
        plan = GridPlan(specs=(
            VoltageSag(start_s=100.0, end_s=200.0, depth=0.3, racks=(1,)),
            UtilityBrownout(start_s=150.0, end_s=250.0, derate=0.1),
        ))
        sim = make_sim("vDEB", grid_plan=plan)
        result = sim.run(duration_s=400.0, dt=1.0)
        started = [e for e in result.grid if isinstance(e, GridEventStarted)]
        cleared = [e for e in result.grid if isinstance(e, GridEventCleared)]
        assert [e.event for e in started] == [
            "voltage-sag", "utility-brownout",
        ]
        assert [e.time_s for e in started] == [100.0, 150.0]
        assert [e.time_s for e in cleared] == [200.0, 250.0]
        assert started[0].racks == (1,)
        assert started[1].racks == (0, 1, 2, 3)

    def test_plan_validated_against_cluster(self):
        plan = GridPlan(specs=(
            VoltageSag(start_s=0.0, end_s=1.0, depth=0.2, racks=(9,)),
        ))
        with pytest.raises(ConfigError):
            make_sim(grid_plan=plan)

    def test_no_grid_plan_is_bit_identical_to_omitting_it(self):
        base = make_sim("PAD", util=0.55, attacker=spike_attacker())
        empty = make_sim(
            "PAD", util=0.55, attacker=spike_attacker(),
            grid_plan=GridPlan(),
        )
        a = base.run(duration_s=300.0, dt=0.5, record_every=1)
        b = empty.run(duration_s=300.0, dt=0.5, record_every=1)
        assert np.array_equal(
            a.recorder.series("total_utility_w"),
            b.recorder.series("total_utility_w"),
        )
        assert a.grid == [] and b.grid == []

    def test_sag_transfers_feed_to_battery(self):
        """During the sag the utility serves at most 1-depth of the rack."""
        plan = GridPlan(specs=(
            VoltageSag(start_s=60.0, end_s=180.0, depth=0.4, racks=(1,)),
        ))
        healthy = make_sim("PS", util=0.5).run(
            duration_s=240.0, dt=1.0, record_every=1
        )
        sagged = make_sim("PS", util=0.5, grid_plan=plan).run(
            duration_s=240.0, dt=1.0, record_every=1
        )
        time = healthy.recorder.series("time_s")
        inside = (time >= 61.0) & (time < 180.0)
        h_rack = healthy.recorder.matrix("rack_utility_w")[:, 1]
        s_rack = sagged.recorder.matrix("rack_utility_w")[:, 1]
        # The sagged feed carries at most (1 - depth) of the budgeted
        # rack feed — the battery bridges the rest of the demand.
        budget = DataCenterConfig(
            cluster=ClusterConfig(racks=4)
        ).cluster.pdu_budget_w / 4
        assert np.all(s_rack[inside] <= (1.0 - 0.4) * budget + 1e-6)
        assert np.all(s_rack[inside] < h_rack[inside])
        # The battery bridges the difference.
        assert np.all(
            sagged.recorder.matrix("rack_soc")[inside, 1]
            <= healthy.recorder.matrix("rack_soc")[inside, 1] + 1e-12
        )
        # After the window clears the feed is healthy again.
        after = time >= 181.0
        assert np.allclose(s_rack[after][-30:], h_rack[after][-30:], rtol=0.2)

    def test_ride_through_edges_rearm_after_each_sag(self):
        """Between two sags no grid input reaches the scheme, which
        resets its edge state: the second sag publishes a fresh edge."""
        plan = GridPlan(specs=(
            VoltageSag(start_s=60.0, end_s=120.0, depth=0.4, racks=(1,)),
            VoltageSag(start_s=240.0, end_s=300.0, depth=0.4, racks=(1,)),
        ))
        sim = make_sim("PS", util=0.5, grid_plan=plan)
        first = sim.run(duration_s=200.0, dt=1.0, record_every=1)
        assert any(isinstance(e, RideThroughEngaged) for e in first.grid)
        assert not sim.scheme._ride_engaged.any()
        assert not sim.scheme._grid_edges_live
        second = sim.run(
            duration_s=160.0, dt=1.0, start_s=200.0, record_every=1
        )
        edges = [e for e in second.grid if isinstance(e, RideThroughEngaged)]
        assert edges and 240.0 <= edges[0].time_s < 300.0
        assert edges[0].racks == (1,)

    def test_freg_duty_respects_floor(self):
        """Regulation pre-drains the pack but never below its floor."""
        plan = GridPlan(specs=(
            FrequencyRegulationDuty(
                start_s=30.0, end_s=600.0, power_w=4000.0,
                period_s=60.0, duty=0.9, floor_soc=0.6, racks=(0,),
            ),
        ))
        sim = make_sim("PS", util=0.3, grid_plan=plan)
        result = sim.run(duration_s=600.0, dt=1.0, record_every=1)
        soc = result.recorder.matrix("rack_soc")[:, 0]
        assert soc.min() < 0.95          # the duty drained the pack
        assert soc.min() >= 0.6 - 0.02   # but stopped at the floor

    def test_grid_windows_refine_runner_schedule(self):
        plan = GridPlan(specs=(
            VoltageSag(start_s=290.0, end_s=310.0, depth=0.2),
        ))
        sim = make_sim("PS", grid_plan=plan)
        runner = Runner(sim, coarse_dt=60.0, fine_dt=1.0)
        schedule = runner.schedule(0.0, 600.0)
        fine = [seg for seg in schedule if seg.dt == 1.0]
        assert len(fine) == 1
        assert fine[0].start_s <= 290.0 and fine[0].end_s >= 310.0


# ---------------------------------------------------------------------- #
# Reserve partition and graceful degradation                              #
# ---------------------------------------------------------------------- #


class TestReservePolicy:
    def test_floor_validation(self):
        ReservePolicy(ride_through_floor_soc=0.0)
        ReservePolicy(ride_through_floor_soc=0.99)
        for floor in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                ReservePolicy(ride_through_floor_soc=floor)

    def test_reserve_clamps_defense_discharge_at_floor(self):
        """With no grid stress, defense discharge stops at the floor."""
        floor = 0.6
        config = DataCenterConfig(
            cluster=ClusterConfig(racks=4),
            reserve=ReservePolicy(ride_through_floor_soc=floor),
        )
        guarded = make_sim(
            "vDEB", util=0.62, attacker=spike_attacker(),
            config=config, initial_battery_soc=0.7,
        ).run(duration_s=600.0, dt=0.5, record_every=1)
        free = make_sim(
            "vDEB", util=0.62, attacker=spike_attacker(),
            initial_battery_soc=0.7,
        ).run(duration_s=600.0, dt=0.5, record_every=1)
        guarded_min = guarded.recorder.matrix("rack_soc").min()
        free_min = free.recorder.matrix("rack_soc").min()
        assert guarded_min >= floor - 1e-9
        # The unpartitioned fleet spends below the floor — the reserve
        # is what held the slice back, not a lack of demand for it.
        assert free_min < floor

    def test_ride_through_may_spend_below_the_floor(self):
        """A sag unlocks the reserved slice: ride-through goes below."""
        floor = 0.9
        config = DataCenterConfig(
            cluster=ClusterConfig(racks=4),
            reserve=ReservePolicy(ride_through_floor_soc=floor),
        )
        plan = GridPlan(specs=(
            VoltageSag(start_s=60.0, end_s=300.0, depth=0.5, racks=(1,)),
        ))
        result = make_sim(
            "PAD", util=0.5, config=config, grid_plan=plan,
        ).run(duration_s=360.0, dt=0.5, record_every=1)
        soc = result.recorder.matrix("rack_soc")[:, 1]
        assert soc.min() < floor
        assert any(
            isinstance(e, RideThroughEngaged) for e in result.grid
        )

    def test_breach_event_fires_when_defense_slice_empties(self):
        floor = 0.95
        config = DataCenterConfig(
            cluster=ClusterConfig(racks=4),
            reserve=ReservePolicy(ride_through_floor_soc=floor),
        )
        plan = GridPlan(specs=(
            VoltageSag(start_s=60.0, end_s=500.0, depth=0.5, racks=(1,)),
        ))
        result = make_sim(
            "PAD", util=0.55, config=config, grid_plan=plan,
        ).run(duration_s=600.0, dt=0.5, record_every=1)
        breaches = [
            e for e in result.grid if isinstance(e, ReserveBreached)
        ]
        assert breaches
        assert all(1 in e.racks for e in breaches)
        # Breach is a rising edge after the sag opened.
        assert breaches[0].time_s > 60.0


# ---------------------------------------------------------------------- #
# Preference-directed shedding                                            #
# ---------------------------------------------------------------------- #


def make_shedder(servers=8, cap_ratio=0.25, hysteresis_s=300.0):
    return LoadShedder(
        PolicyConfig(
            shed_ratio_cap=cap_ratio, shed_hysteresis_s=hysteresis_s
        ),
        servers,
        per_server_saving_w=100.0,
    )


class TestPreferredShedding:
    def test_preferred_servers_shed_before_hotter_ones(self):
        shedder = make_shedder()
        util = np.array([0.9, 0.8, 0.7, 0.6, 0.3, 0.2, 0.1, 0.05])
        prefer = np.zeros(8, dtype=bool)
        prefer[[4, 5]] = True
        decision = shedder.update(0.0, util, 150.0, prefer=prefer)
        # Two servers needed; the cold-but-preferred pair goes first.
        assert set(decision.newly_shed) == {4, 5}

    def test_all_false_prefer_is_identical_to_none(self):
        a, b = make_shedder(), make_shedder()
        util = np.linspace(1.0, 0.1, 8)
        da = a.update(0.0, util, 150.0, prefer=None)
        db = b.update(0.0, util, 150.0, prefer=np.zeros(8, dtype=bool))
        assert np.array_equal(da.asleep, db.asleep)
        assert da.newly_shed == db.newly_shed

    def test_rotation_swaps_toward_preferred_bypassing_hysteresis(self):
        shedder = make_shedder(servers=8, cap_ratio=0.25)
        util = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])
        # Fill the cap (2 servers) on the hottest.
        first = shedder.update(0.0, util, 200.0)
        assert first.shed_count == 2
        assert np.array_equal(np.nonzero(first.asleep)[0], [0, 1])
        # One second later (hysteresis NOT elapsed) the excess persists
        # and a preferred server is still awake: the rotation must swap
        # it in anyway, releasing the coldest non-preferred sleeper.
        prefer = np.zeros(8, dtype=bool)
        prefer[5] = True
        second = shedder.update(1.0, util, 200.0, prefer=prefer)
        assert second.newly_shed == (5,)
        assert second.newly_released == (1,)

    def test_rotation_without_prefer_respects_hysteresis(self):
        shedder = make_shedder(servers=8, cap_ratio=0.25)
        util = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])
        shedder.update(0.0, util, 200.0)
        # Hot load moves but hysteresis has not elapsed: no rotation.
        moved = util[::-1].copy()
        stuck = shedder.update(1.0, moved, 200.0)
        assert stuck.newly_shed == () and stuck.newly_released == ()

    def test_prefer_shape_validated(self):
        shedder = make_shedder()
        with pytest.raises(ConfigError):
            shedder.update(
                0.0, np.zeros(8), 100.0, prefer=np.zeros(4, dtype=bool)
            )
