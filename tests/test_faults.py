"""Fault-injection subsystem tests: specs, telemetry view, degradation.

Covers the three layers of the ``repro.faults`` stack:

* the declarative :class:`FaultSpec`/:class:`FaultPlan` layer (eager
  validation, rack normalisation, picklability);
* the :class:`~repro.defense.telemetry.TelemetryView` sensor boundary
  (hold-last-value, staleness TTL, lying SOC sensors, comm loss, and the
  healthy-path transparency the golden traces depend on);
* end-to-end injection through the step pipeline (typed fault events,
  one-shot battery damage, breaker mis-rating, noise determinism) and
  the graceful-degradation policies (fail-safe soft limits, capping
  hold, policy escalation, and the blackout satellite: degraded PAD must
  never do worse than no defense at all).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.attack import Attacker, SpikeTrainConfig, VirusKind
from repro.battery.fleet_kernels import make_fleet
from repro.config import BatteryConfig, ClusterConfig, DataCenterConfig, SupercapConfig
from repro.core.policy import SecurityLevel
from repro.core.udeb import UdebShaver, VectorUdebShaver
from repro.defense import SCHEMES
from repro.defense.base import SchemeContext, StepState
from repro.defense.pad import PadScheme
from repro.defense.telemetry import TelemetryView
from repro.defense.vdeb_only import VdebScheme
from repro.errors import FaultInjectionError
from repro.faults import (
    BatteryFade,
    BreakerMisrating,
    FaultPlan,
    SocBias,
    SocFreeze,
    TelemetryDropout,
    TelemetryNoise,
    UdebStuckOpen,
    VdebCommLoss,
)
from repro.sim import (
    DataCenterSimulation,
    FaultCleared,
    FaultInjected,
    Runner,
    SoftLimitsReassigned,
)
from repro.workload import ClusterModel, UtilizationTrace

from .differential import telemetry_sequences


def flat_trace(util, machines=40, steps=200, interval_s=60.0):
    return UtilizationTrace(
        np.full((steps, machines), util), interval_s=interval_s
    )


def make_sim(scheme="PS", util=0.4, racks=4, attacker=None, **kwargs):
    config = DataCenterConfig(cluster=ClusterConfig(racks=racks))
    trace = flat_trace(util, machines=racks * 10)
    return DataCenterSimulation(
        config, trace, SCHEMES[scheme], attacker=attacker, **kwargs
    )


def spike_attacker(start=60.0):
    """A two-phase attacker whose Phase II is hidden sub-second spikes."""
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


class TestSpecValidation:
    def test_window_must_be_forward(self):
        with pytest.raises(FaultInjectionError):
            TelemetryDropout(start_s=10.0, end_s=10.0)
        with pytest.raises(FaultInjectionError):
            SocFreeze(start_s=10.0, end_s=5.0)

    def test_one_shot_instant_must_be_nonnegative(self):
        with pytest.raises(FaultInjectionError):
            BatteryFade(at_s=-1.0, fade=0.2)

    def test_parameter_ranges(self):
        with pytest.raises(FaultInjectionError):
            TelemetryNoise(start_s=0.0, end_s=1.0, sigma_w=0.0)
        with pytest.raises(FaultInjectionError):
            SocBias(start_s=0.0, end_s=1.0, bias=1.5)
        with pytest.raises(FaultInjectionError):
            BatteryFade(at_s=0.0, fade=1.0)
        with pytest.raises(FaultInjectionError):
            BreakerMisrating(start_s=0.0, end_s=1.0, factor=0.0)
        with pytest.raises(FaultInjectionError):
            BreakerMisrating(start_s=0.0, end_s=1.0, factor=5.0)

    def test_rack_normalisation(self):
        spec = TelemetryDropout(start_s=0.0, end_s=1.0, racks=(3, 1, 3, 0))
        assert spec.racks == (0, 1, 3)
        with pytest.raises(FaultInjectionError):
            TelemetryDropout(start_s=0.0, end_s=1.0, racks=())
        with pytest.raises(FaultInjectionError):
            TelemetryDropout(start_s=0.0, end_s=1.0, racks=(-1,))

    def test_validate_for_cluster_width(self):
        spec = VdebCommLoss(start_s=0.0, end_s=1.0, racks=(5,))
        spec.validate_for(6)  # fits
        with pytest.raises(FaultInjectionError):
            spec.validate_for(4)
        plan = FaultPlan(specs=(spec,))
        with pytest.raises(FaultInjectionError):
            plan.validate_for(4)

    def test_plan_rejects_non_specs(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(specs=("telemetry-dropout",))

    def test_plan_windows_exclude_one_shots(self):
        plan = FaultPlan(specs=(
            TelemetryDropout(start_s=5.0, end_s=9.0),
            BatteryFade(at_s=3.0, fade=0.25),
            UdebStuckOpen(start_s=1.0, end_s=2.0),
        ))
        assert plan.windows() == [(5.0, 9.0), (1.0, 2.0)]
        assert len(plan) == 3

    def test_dead_string_helper(self):
        spec = BatteryFade.dead_string(at_s=10.0, racks=(2,), strings=4)
        assert spec.fade == pytest.approx(0.25)
        assert spec.racks == (2,)
        with pytest.raises(FaultInjectionError):
            BatteryFade.dead_string(at_s=10.0, racks=(2,), strings=1)

    def test_plan_pickles_round_trip(self):
        """Plans ride inside SweepCells through process pools."""
        plan = FaultPlan(
            specs=(
                TelemetryNoise(start_s=0.0, end_s=9.0, sigma_w=40.0),
                BatteryFade(at_s=4.0, fade=0.1, racks=(1, 2)),
            ),
            seed=77,
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan


# ---------------------------------------------------------------------- #
# TelemetryView                                                           #
# ---------------------------------------------------------------------- #


class TestTelemetryView:
    def make(self, racks=4, servers=8, ttl=30.0):
        return TelemetryView(racks, servers, ttl)

    def test_constructor_validation(self):
        with pytest.raises(FaultInjectionError):
            TelemetryView(0, 8, 30.0)
        with pytest.raises(FaultInjectionError):
            TelemetryView(4, 8, 0.0)

    def test_healthy_transparency(self):
        """No fault: SOC accessors return the fleet's own values."""
        view = self.make()
        fleet = make_fleet("vectorized", BatteryConfig(), 4, initial_soc=0.8)
        assert np.array_equal(view.battery_soc(fleet), fleet.soc_vector())
        assert view.pool_soc(fleet) == fleet.pool_soc
        assert view.comm_ok is None
        assert not view.soc_sensor_faulted

    def test_hold_last_value_and_ttl(self):
        view = self.make(ttl=30.0)
        first = np.array([100.0, 200.0, 300.0, 400.0])
        view.observe(0.0, first, np.zeros(8))
        # Racks 2 and 3 drop out; their channels hold and age.
        mask = np.array([True, True, False, False])
        fresh = np.array([110.0, 210.0, 310.0, 410.0])
        view.observe(10.0, fresh, np.zeros(8), rack_mask=mask)
        held = view.rack_avg_w()
        assert held[0] == 110.0 and held[1] == 210.0
        assert held[2] == 300.0 and held[3] == 400.0
        assert view.age_s(10.0) == pytest.approx(10.0)
        assert not view.is_stale(25.0)       # inside TTL: trust the hold
        assert view.is_stale(31.0)           # past TTL: fail safe
        assert view.fresh_racks(35.0).tolist() == [True, True, False, False]

    def test_reads_hand_out_copies(self):
        view = self.make()
        reading = np.array([1.0, 2.0, 3.0, 4.0])
        view.observe(0.0, reading, np.zeros(8))
        view.rack_avg_w()[0] = 999.0
        assert view.rack_avg_w()[0] == 1.0

    def test_soc_bias_clips(self):
        view = self.make()
        fleet = make_fleet("vectorized", BatteryConfig(), 4, initial_soc=0.9)
        view.set_soc_bias(np.array([0.5, -0.5, 0.0, 0.0]))
        sensed = view.battery_soc(fleet)
        assert sensed[0] == 1.0                       # clipped high
        assert sensed[1] == pytest.approx(0.4)
        assert sensed[2] == pytest.approx(0.9)
        assert view.soc_sensor_faulted

    def test_soc_freeze_overrides(self):
        view = self.make()
        fleet = make_fleet("vectorized", BatteryConfig(), 4, initial_soc=0.5)
        frozen = np.array([0.95, 0.0, 0.0, 0.0])
        view.set_soc_freeze(np.array([True, False, False, False]), frozen)
        sensed = view.battery_soc(fleet)
        assert sensed[0] == pytest.approx(0.95)       # the lie
        assert sensed[1] == pytest.approx(0.5)        # the truth
        # The pool gauge aggregates the same lying sensors.
        assert view.pool_soc(fleet) > fleet.pool_soc

    def test_comm_loss_mask_and_heal(self):
        view = self.make()
        view.set_comm_loss(np.array([True, False, False, False]))
        assert view.comm_ok.tolist() == [False, True, True, True]
        view.set_comm_loss(None)
        assert view.comm_ok is None

    @settings(max_examples=150, deadline=None)
    @given(sequence=telemetry_sequences(racks=4))
    def test_age_shortcut_matches_masked_observe(self, sequence):
        """The healthy-path age (0.0 right after an unmasked observe)
        equals the general reduction: a twin view takes every unmasked
        observation through the masked path with an all-true mask."""
        start, dt, events = sequence
        fast, general = self.make(ttl=30.0), self.make(ttl=30.0)
        step = 0
        for ahead, mask in events:
            step += ahead
            now = start + step * dt
            reading = np.full(4, float(step))
            fast.observe(
                now, reading, np.zeros(8),
                rack_mask=None if mask is None else np.array(mask),
            )
            general.observe(
                now, reading, np.zeros(8),
                rack_mask=np.array(mask if mask is not None
                                   else (True,) * 4),
            )
            probes = (now, now + dt, start + (step + 61) * dt)
            for later in probes:
                age = fast.age_s(later)
                assert np.float64(age).tobytes() == np.float64(
                    general.age_s(later)
                ).tobytes()
                assert fast.is_stale(later) == general.is_stale(later)
            assert np.array_equal(fast.fresh_racks(now),
                                  general.fresh_racks(now))

    def test_reset_heals_everything(self):
        view = self.make()
        fleet = make_fleet("vectorized", BatteryConfig(), 4, initial_soc=0.5)
        view.observe(0.0, np.zeros(4), np.zeros(8))
        view.set_soc_bias(np.full(4, 0.2))
        view.set_comm_loss(np.ones(4, dtype=bool))
        view.reset()
        assert view.age_s(1e6) == 0.0
        assert not view.soc_sensor_faulted
        assert view.comm_ok is None
        assert np.array_equal(view.battery_soc(fleet), fleet.soc_vector())


# ---------------------------------------------------------------------- #
# End-to-end injection through the pipeline                               #
# ---------------------------------------------------------------------- #


class TestInjection:
    def test_fault_events_publish_at_window_edges(self):
        plan = FaultPlan(specs=(
            TelemetryDropout(start_s=100.0, end_s=200.0, racks=(1,)),
            VdebCommLoss(start_s=150.0, end_s=250.0),
        ))
        sim = make_sim("vDEB", fault_plan=plan)
        result = sim.run(duration_s=400.0, dt=1.0)
        injected = [e for e in result.faults if isinstance(e, FaultInjected)]
        cleared = [e for e in result.faults if isinstance(e, FaultCleared)]
        assert [e.fault for e in injected] == [
            "telemetry-dropout", "vdeb-comm-loss",
        ]
        assert [e.time_s for e in injected] == [100.0, 150.0]
        assert [e.time_s for e in cleared] == [200.0, 250.0]
        assert injected[0].racks == (1,)
        assert injected[1].racks == (0, 1, 2, 3)
        assert result.fault_counts == {
            "telemetry-dropout": 1, "vdeb-comm-loss": 1,
        }

    def test_plan_validated_against_cluster(self):
        plan = FaultPlan(specs=(
            TelemetryDropout(start_s=0.0, end_s=1.0, racks=(9,)),
        ))
        with pytest.raises(FaultInjectionError):
            make_sim(fault_plan=plan)

    def test_fault_windows_refine_runner_schedule(self):
        plan = FaultPlan(specs=(
            SocFreeze(start_s=290.0, end_s=310.0),
        ))
        sim = make_sim("PS", fault_plan=plan)
        runner = Runner(sim, coarse_dt=60.0, fine_dt=1.0)
        schedule = runner.schedule(0.0, 600.0)
        fine = [seg for seg in schedule if seg.dt == 1.0]
        assert len(fine) == 1
        # Snapped outward to the coarse grid: the fine span covers the
        # whole fault window.
        assert fine[0].start_s <= 290.0 and fine[0].end_s >= 310.0

    def test_no_fault_plan_is_bit_identical_to_omitting_it(self):
        """An empty plan must not perturb the simulation at all."""
        base = make_sim("PAD", util=0.55, attacker=spike_attacker())
        empty = make_sim(
            "PAD", util=0.55, attacker=spike_attacker(),
            fault_plan=FaultPlan(),
        )
        a = base.run(duration_s=300.0, dt=0.5, record_every=1)
        b = empty.run(duration_s=300.0, dt=0.5, record_every=1)
        assert np.array_equal(
            a.recorder.series("total_utility_w"),
            b.recorder.series("total_utility_w"),
        )
        assert a.fault_counts == {} and b.fault_counts == {}

    def test_battery_fade_is_one_shot_and_survives_reset(self):
        plan = FaultPlan(specs=(
            BatteryFade(at_s=50.0, fade=0.5, racks=(0,)),
        ))
        sim = make_sim("PS", fault_plan=plan)
        nominal = sim.scheme.fleet.capacity_j_vector().copy()
        result = sim.run(duration_s=200.0, dt=1.0)
        faded = sim.scheme.fleet.capacity_j_vector()
        assert faded[0] == pytest.approx(0.5 * nominal[0])
        assert np.array_equal(faded[1:], nominal[1:])
        # Fires exactly once and never clears: the damage is physical.
        assert result.fault_counts == {"battery-fade": 1}
        assert not any(isinstance(e, FaultCleared) for e in result.faults)
        sim.scheme.reset()
        assert sim.scheme.fleet.capacity_j_vector()[0] == pytest.approx(
            0.5 * nominal[0]
        )

    def test_breaker_misrating_trips_without_overload_detection(self):
        """An under-rated breaker trips on load the meters call legal."""
        plan = FaultPlan(specs=(
            BreakerMisrating(start_s=120.0, end_s=600.0, factor=0.3),
        ))
        sim = make_sim("Conv", util=0.55, fault_plan=plan)
        result = sim.run(duration_s=600.0, dt=1.0, stop_on_trip=True)
        assert result.trips
        assert result.trips[0].time_s >= 120.0
        # Overload detection keeps the nominal rating: the same load that
        # tripped the derated hardware never counts as an attack.
        assert result.overloads == []

    def test_nominal_rating_restored_after_misrating_clears(self):
        plan = FaultPlan(specs=(
            BreakerMisrating(start_s=60.0, end_s=120.0, factor=1.5),
        ))
        sim = make_sim("Conv", util=0.55, fault_plan=plan)
        result = sim.run(duration_s=300.0, dt=1.0)
        assert result.fault_counts == {"breaker-misrating": 1}
        assert result.trips == []   # factor > 1 only loosens enforcement

    def test_noise_is_deterministic_per_plan_seed(self):
        plan = FaultPlan(
            specs=(TelemetryNoise(start_s=60.0, end_s=240.0, sigma_w=500.0),),
            seed=5,
        )
        runs = []
        for _ in range(2):
            sim = make_sim("PSPC", util=0.55, fault_plan=plan)
            runs.append(sim.run(duration_s=300.0, dt=1.0, record_every=1))
        assert np.array_equal(
            runs[0].recorder.series("total_utility_w"),
            runs[1].recorder.series("total_utility_w"),
        )

    def test_stuck_open_fet_stops_shaving(self):
        for shaver_cls in (UdebShaver, VectorUdebShaver):
            shaver = shaver_cls(SupercapConfig(), 2)
            excess = np.array([500.0, 500.0])
            shaver.set_stuck_open(np.array([True, False]))
            result = shaver.shave(excess, 0.5)
            assert result.shaved_w[0] == 0.0          # FET cannot conduct
            assert result.unshaved_w[0] == 500.0      # spike hits the feed
            assert result.shaved_w[1] > 0.0           # healthy bank works
            shaver.set_stuck_open(None)
            healed = shaver.shave(excess, 0.5)
            assert healed.shaved_w[0] > 0.0


# ---------------------------------------------------------------------- #
# Graceful degradation                                                    #
# ---------------------------------------------------------------------- #


def scheme_context(racks=4, **kwargs):
    config = DataCenterConfig(cluster=ClusterConfig(racks=racks))
    cluster = ClusterModel(config.cluster)
    budget = config.cluster.pdu_budget_w / racks
    return SchemeContext(
        config=config,
        cluster=cluster,
        initial_soft_limits_w=np.full(racks, budget),
        backend="vectorized",
        **kwargs,
    )


def step_state(ctx, demand, metered=None, stale=False, time_s=0.0):
    demand = np.asarray(demand, dtype=float)
    return StepState(
        time_s=time_s,
        dt=1.0,
        rack_demand_w=demand,
        metered_rack_avg_w=(
            demand if metered is None else np.asarray(metered, dtype=float)
        ),
        metered_server_util=np.zeros(ctx.cluster.servers),
        telemetry_stale=stale,
        telemetry_age_s=1e9 if stale else 0.0,
    )


class TestDegradation:
    def test_comm_loss_cuts_pool_duty_but_not_local_reflex(self):
        ctx = scheme_context()
        budget = ctx.initial_soft_limits_w[0]
        demand = np.array([1.5, 0.95, 0.95, 0.95]) * budget
        healthy = VdebScheme(scheme_context())
        faulted = VdebScheme(scheme_context())
        faulted.telemetry.set_comm_loss(np.ones(4, dtype=bool))
        d_healthy = healthy.dispatch(step_state(ctx, demand))
        d_faulted = faulted.dispatch(step_state(ctx, demand))
        # Healthy: the pool spreads duty to under-budget racks too.
        assert float(d_healthy.battery_w[1:].sum()) > 0.0
        # Comm down: no pool commands land; only the overloaded rack's
        # local hardware reflex (its own excess) still discharges.
        assert np.all(d_faulted.battery_w[1:] == 0.0)
        assert d_faulted.battery_w[0] > 0.0

    def test_stale_telemetry_forces_fail_safe_limits(self):
        ctx = scheme_context()
        scheme = VdebScheme(ctx)
        skewed = scheme.initial_soft_limits_w * np.array([1.3, 0.9, 0.9, 0.9])
        scheme.soft_limits_w = skewed
        events = []
        scheme.bus.subscribe(SoftLimitsReassigned, events.append)
        demand = scheme.initial_soft_limits_w * 0.8
        scheme.dispatch(step_state(ctx, demand, stale=True))
        # Blind controller retreats to the provisioned equal-share floor.
        assert np.array_equal(scheme.soft_limits_w, scheme.initial_soft_limits_w)
        assert len(events) == 1
        # Idempotent: already at the floor, no repeat event.
        scheme.dispatch(step_state(ctx, demand, stale=True, time_s=1.0))
        assert len(events) == 1

    def test_stale_telemetry_holds_capping(self):
        ctx = scheme_context()
        scheme = SCHEMES["PSPC"](scheme_context())
        # Meters claim a massive sustained overload the batteries cannot
        # cover — normally capping engages within its latency.
        metered = scheme.soft_limits_w * 3.0
        demand = scheme.soft_limits_w * 0.8
        for tick in range(5):
            scheme.dispatch(step_state(
                ctx, demand, metered=metered, time_s=float(tick),
            ))
        assert scheme.capped_racks.any()
        held = SCHEMES["PSPC"](scheme_context())
        for tick in range(5):
            held.dispatch(step_state(
                ctx, demand, metered=metered, stale=True, time_s=float(tick),
            ))
        # Frozen readings can justify neither capping nor release.
        assert not held.capped_racks.any()

    def test_stale_telemetry_escalates_pad_policy(self):
        ctx = scheme_context()
        scheme = PadScheme(ctx)
        demand = scheme.initial_soft_limits_w * 0.8
        scheme.dispatch(step_state(ctx, demand))
        assert scheme.level is SecurityLevel.NORMAL
        # Blind: assume the worst the meters could hide — the uDEB layer
        # is treated as unavailable and the policy leaves NORMAL.
        scheme.dispatch(step_state(ctx, demand, stale=True, time_s=1.0))
        assert scheme.level is not SecurityLevel.NORMAL

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_blackout_pad_never_worse_than_no_defense(self, backend):
        """Satellite acceptance: full telemetry blackout through Phase II.

        PAD running completely blind (every meter dropped from before the
        attack to the end of the run) must still survive at least as long
        as a conventional datacenter with no defense at all — the
        hardware reflexes (battery shaving, supercap spike absorption)
        do not need the software plane.
        """
        blackout = FaultPlan(specs=(
            TelemetryDropout(start_s=30.0, end_s=10_000.0),
        ))
        pad = make_sim(
            "PAD", util=0.55, attacker=spike_attacker(),
            fault_plan=blackout, backend=backend,
        ).run(duration_s=1200.0, dt=0.5, stop_on_trip=True)
        conv = make_sim(
            "Conv", util=0.55, attacker=spike_attacker(), backend=backend,
        ).run(duration_s=1200.0, dt=0.5, stop_on_trip=True)
        assert pad.survival_or_window() >= conv.survival_or_window()
