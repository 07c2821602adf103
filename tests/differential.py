"""Shared harness for the scalar-vs-vectorized differential tests.

The vectorized kernels in :mod:`repro.battery.fleet_kernels` and
:mod:`repro.power.breaker_kernels` are *proven* against their scalar
oracles by replaying randomised schedules through both implementations
and demanding agreement on every observable after every step. This
module holds the pieces both the equivalence suite and the invariant
suite share:

* ``assert_agree`` — the single tolerance gate (1e-9 relative; the
  kernels are written to agree bit-for-bit, the tolerance is a backstop).
* Hypothesis strategies producing *physically shaped* schedules: benign
  traces, Phase-I drain ramps (sustained load that empties the KiBaM
  available well and springs the LVD), Phase-II hidden spikes (rare,
  huge, sub-metering-interval bursts), rest periods, breaker load
  tracks with mid-run rating reassignment (the vDEB case), mid-run
  battery capacity fades, and whole :class:`~repro.faults.FaultPlan`
  windows (telemetry dropout/noise, lying SOC sensors, comm loss,
  battery damage, stuck FETs, mis-rated breakers).
* Cases for the per-step shortcuts, each checked against the general
  branch it skips: LVD updates on all-connected fleets, one tick's
  server state (utilisation, capped/asleep/down masks) for the shared
  clip, and telemetry observation sequences for the healthy-path age.

Schedules are plain frozen dataclasses so failing examples shrink to
readable reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from hypothesis import strategies as st

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

#: Relative agreement demanded between the scalar oracle and the kernel.
RTOL = 1e-9
#: Absolute backstop for quantities that are exactly zero on one side.
ATOL = 1e-12

#: Step lengths worth exercising: the fine attack step (0.5 s), the
#: coarse trace interval scale, and extremes on either side.
DTS = (0.1, 0.5, 1.0, 7.5, 30.0)

#: Schedule shapes, named after the attack phases they reproduce.
PROFILES = ("benign", "drain", "spike", "mixed")

#: States of charge on and around the default LVD threshold (0.05) and
#: its reconnect line (0.15), where the disconnect latch flips.
LVD_EDGE_SOCS = (0.0, 0.049, 0.05, 0.051, 0.149, 0.15, 0.151)

#: Per-rack starting SOC: anywhere, or on an LVD edge.
start_socs = st.one_of(
    st.floats(0.0, 1.0, allow_nan=False), st.sampled_from(LVD_EDGE_SOCS)
)


def assert_agree(label: str, scalar, vector, rtol: float = RTOL) -> None:
    """Demand scalar/vectorized agreement within ``rtol`` relative."""
    np.testing.assert_allclose(
        np.asarray(vector, dtype=float),
        np.asarray(scalar, dtype=float),
        rtol=rtol,
        atol=ATOL,
        err_msg=f"{label}: vectorized kernel diverged from the scalar oracle",
    )


def assert_same_mask(label: str, scalar, vector) -> None:
    """Demand exact agreement on boolean / integer state."""
    if not np.array_equal(np.asarray(scalar), np.asarray(vector)):
        raise AssertionError(
            f"{label}: vectorized kernel diverged from the scalar oracle: "
            f"{np.asarray(scalar)} != {np.asarray(vector)}"
        )


# ---------------------------------------------------------------------- #
# Battery schedules                                                       #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FleetSchedule:
    """A replayable battery-fleet drive.

    Attributes:
        racks: Fleet width.
        dt: Step length in seconds.
        initial_socs: Per-rack starting state of charge.
        steps: Per step, ``(discharge_w, charge_w)`` request vectors; a
            rack never has both positive (the fleet contract).
        fades: Mid-run capacity damage: ``(step_index, fade_vector)``
            entries applied via ``apply_capacity_fade`` just before the
            indexed step (the :class:`repro.faults.BatteryFade` case).
    """

    racks: int
    dt: float
    initial_socs: "tuple[float, ...]"
    steps: "tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]"
    fades: "tuple[tuple[int, tuple[float, ...]], ...]" = field(default=())


def _step_watts(profile: str, mag: float, index: int, n_steps: int) -> float:
    """Shape a unit magnitude into watts for the given profile."""
    if profile == "benign":
        return 600.0 * mag
    if profile == "drain":
        # Phase-I ramp: sustained draw growing toward well past the
        # C-rate ceiling, emptying the available well.
        return 9000.0 * mag * (index + 1) / n_steps
    if profile == "spike":
        # Phase-II hidden spikes: mostly nothing, occasionally enormous.
        return 2.5e4 * mag if mag > 0.75 else 0.0
    return 1.2e4 * mag  # mixed


@st.composite
def fleet_schedules(draw) -> FleetSchedule:
    """Mixed charge/discharge/rest drives for a whole battery fleet."""
    racks = draw(st.integers(min_value=1, max_value=4))
    dt = draw(st.sampled_from(DTS))
    socs = tuple(
        draw(st.lists(start_socs, min_size=racks, max_size=racks))
    )
    profile = draw(st.sampled_from(PROFILES))
    n_steps = draw(st.integers(min_value=2, max_value=12))
    steps = []
    for index in range(n_steps):
        modes = draw(
            st.lists(
                st.sampled_from(("discharge", "charge", "rest")),
                min_size=racks,
                max_size=racks,
            )
        )
        mags = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=racks,
                max_size=racks,
            )
        )
        out, inn = [], []
        for mode, mag in zip(modes, mags):
            watts = _step_watts(profile, mag, index, n_steps)
            out.append(watts if mode == "discharge" else 0.0)
            inn.append(watts if mode == "charge" else 0.0)
        steps.append((tuple(out), tuple(inn)))
    n_fades = draw(st.integers(min_value=0, max_value=2))
    fades = []
    for _ in range(n_fades):
        at_step = draw(st.integers(min_value=0, max_value=n_steps - 1))
        fade = tuple(
            draw(
                st.lists(
                    st.floats(0.0, 0.9, allow_nan=False),
                    min_size=racks,
                    max_size=racks,
                )
            )
        )
        fades.append((at_step, fade))
    return FleetSchedule(
        racks=racks,
        dt=dt,
        initial_socs=socs,
        steps=tuple(steps),
        fades=tuple(fades),
    )


@dataclass(frozen=True)
class CellSchedule:
    """A raw two-well-kernel drive: one fleet-wide mode per step.

    Attributes:
        racks: Fleet width.
        dt: Step length in seconds.
        initial_socs: Per-rack starting state of charge.
        steps: Per step, ``(mode, watts)`` with one power entry per rack;
            ``mode`` is ``"discharge"``, ``"charge"`` or ``"rest"``.
    """

    racks: int
    dt: float
    initial_socs: "tuple[float, ...]"
    steps: "tuple[tuple[str, tuple[float, ...]], ...]"


@st.composite
def cell_schedules(draw) -> CellSchedule:
    """Drives for the bare KiBaM kernel (no pack protection layer)."""
    racks = draw(st.integers(min_value=1, max_value=4))
    dt = draw(st.sampled_from(DTS))
    socs = tuple(
        draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=racks,
                max_size=racks,
            )
        )
    )
    profile = draw(st.sampled_from(PROFILES))
    n_steps = draw(st.integers(min_value=2, max_value=12))
    steps = []
    for index in range(n_steps):
        mode = draw(st.sampled_from(("discharge", "charge", "rest")))
        mags = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=racks,
                max_size=racks,
            )
        )
        watts = tuple(
            _step_watts(profile, mag, index, n_steps) for mag in mags
        )
        steps.append((mode, watts))
    return CellSchedule(
        racks=racks, dt=dt, initial_socs=socs, steps=tuple(steps)
    )


@dataclass(frozen=True)
class LvdCase:
    """One low-voltage-disconnect update on an all-connected fleet.

    Attributes:
        socs: Per-rack state of charge before the update.
        mask: Racks allowed to change state (``None`` = all), as the
            discharge-while-disconnected and capacity-fade paths pass.
        fade: Capacity fade applied first (all zero = no fade).
    """

    socs: "tuple[float, ...]"
    mask: "tuple[bool, ...] | None"
    fade: "tuple[float, ...]"


@st.composite
def lvd_cases(draw) -> LvdCase:
    """SOCs on and around the LVD edges, with an optional mask and fade."""
    racks = draw(st.integers(min_value=1, max_value=6))
    socs = tuple(draw(st.lists(start_socs, min_size=racks, max_size=racks)))
    mask = draw(
        st.none() | st.tuples(*[st.booleans() for _ in range(racks)])
    )
    fade = draw(
        st.tuples(*[
            st.sampled_from((0.0, 0.0, 0.5, 0.9)) for _ in range(racks)
        ])
    )
    return LvdCase(socs=socs, mask=mask, fade=fade)


# ---------------------------------------------------------------------- #
# Supercap schedules                                                      #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SupercapSchedule:
    """A replayable uDEB drive.

    Attributes:
        racks: Fleet width.
        dt: Step length in seconds.
        steps: Per step, ``(kind, watts)`` — ``"shave"`` feeds an excess
            vector, ``"recharge"`` a headroom vector.
    """

    racks: int
    dt: float
    steps: "tuple[tuple[str, tuple[float, ...]], ...]"


@st.composite
def supercap_schedules(draw) -> SupercapSchedule:
    """Spike-shaped shave bursts interleaved with trickle recharge."""
    racks = draw(st.integers(min_value=1, max_value=4))
    dt = draw(st.sampled_from(DTS))
    n_steps = draw(st.integers(min_value=2, max_value=14))
    steps = []
    for _ in range(n_steps):
        kind = draw(st.sampled_from(("shave", "shave", "recharge")))
        mags = draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=racks,
                max_size=racks,
            )
        )
        if kind == "shave":
            # Hidden spikes: sparse, far past the ORing power ceiling.
            watts = tuple(2.0e4 * m if m > 0.6 else 0.0 for m in mags)
        else:
            watts = tuple(800.0 * m for m in mags)
        steps.append((kind, watts))
    return SupercapSchedule(racks=racks, dt=dt, steps=tuple(steps))


# ---------------------------------------------------------------------- #
# Per-step server state and telemetry observations                        #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServerState:
    """One tick's inputs to the cluster power and work model.

    Attributes:
        racks: Cluster width (10 servers per rack, the default layout).
        util: Per-server utilisation, straying outside ``[0, 1]`` so
            the clip matters.
        capped_racks: Per-rack DVFS capping (expanded per server).
        asleep: Per-server sleep mask.
        down_racks: Dark racks.
        float32: Hand the utilisation over as float32 instead of float64.
    """

    racks: int
    util: "tuple[float, ...]"
    capped_racks: "tuple[bool, ...]"
    asleep: "tuple[bool, ...]"
    down_racks: "tuple[int, ...]"
    float32: bool = False


def _mask(draw, size: int) -> "tuple[bool, ...]":
    """All false (the quiet tick) or arbitrary."""
    if draw(st.booleans()):
        return (False,) * size
    return tuple(draw(st.lists(st.booleans(), min_size=size, max_size=size)))


@st.composite
def server_states(draw) -> ServerState:
    """Utilisation with capped, asleep and down masks, empty or not."""
    racks = draw(st.integers(min_value=1, max_value=4))
    servers = 10 * racks
    util = tuple(
        draw(
            st.lists(
                st.floats(-0.5, 1.5, allow_nan=False, width=32),
                min_size=servers,
                max_size=servers,
            )
        )
    )
    down = draw(
        st.lists(st.integers(0, racks - 1), max_size=racks, unique=True)
    )
    return ServerState(
        racks=racks,
        util=util,
        capped_racks=_mask(draw, racks),
        asleep=_mask(draw, servers),
        down_racks=tuple(sorted(down)),
        float32=draw(st.booleans()),
    )


@st.composite
def telemetry_sequences(draw, racks: int) -> "tuple[float, float, tuple]":
    """``(start_s, dt, events)``: observations on a fixed step grid.

    Each event is ``(steps_ahead, rack_mask_or_None)``. Masked
    observations (a dropout or comm fault) interleave with unmasked
    ones; masks include all-true (every channel arrived, but through
    the masked path) and all-false (nothing arrived).
    """
    start = draw(st.sampled_from((0.0, 0.5, 86_400.0, 2.6e6 + 0.1)))
    dt = draw(st.sampled_from(DTS))
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        ahead = draw(st.integers(min_value=0, max_value=80))
        mask = draw(
            st.none()
            | st.just((True,) * racks)
            | st.just((False,) * racks)
            | st.tuples(*[st.booleans() for _ in range(racks)])
        )
        events.append((ahead, mask))
    return start, dt, tuple(events)


# ---------------------------------------------------------------------- #
# Breaker schedules                                                       #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class BreakerSchedule:
    """A replayable breaker-bank drive.

    Attributes:
        breakers: Bank width.
        dt: Step length in seconds.
        ratings: Initial per-breaker continuous ratings.
        steps: Per step, ``("load", watts)`` advances the bank one tick;
            ``("ratings", watts)`` re-targets it mid-run (the vDEB
            soft-limit reassignment case).
    """

    breakers: int
    dt: float
    ratings: "tuple[float, ...]"
    steps: "tuple[tuple[str, tuple[float, ...]], ...]"


@st.composite
def breaker_schedules(draw) -> BreakerSchedule:
    """Load tracks spanning cooling, thermal heating and instant trips."""
    breakers = draw(st.integers(min_value=1, max_value=5))
    dt = draw(st.sampled_from(DTS))
    rating = st.floats(500.0, 8000.0, allow_nan=False)
    ratings = tuple(
        draw(st.lists(rating, min_size=breakers, max_size=breakers))
    )
    n_steps = draw(st.integers(min_value=2, max_value=16))
    current = ratings
    steps = []
    for _ in range(n_steps):
        kind = draw(st.sampled_from(("load", "load", "load", "ratings")))
        if kind == "ratings":
            current = tuple(
                draw(st.lists(rating, min_size=breakers, max_size=breakers))
            )
            steps.append(("ratings", current))
            continue
        # Overload ratios up to 3.5 straddle the whole trip curve:
        # <= 1 cools, (1, 3) heats the thermal element, >= 3 fires the
        # magnetic element instantly (default instant_trip_ratio).
        ratios = draw(
            st.lists(
                st.floats(0.0, 3.5, allow_nan=False),
                min_size=breakers,
                max_size=breakers,
            )
        )
        steps.append(
            ("load", tuple(r * w for r, w in zip(ratios, current)))
        )
    return BreakerSchedule(
        breakers=breakers, dt=dt, ratings=ratings, steps=tuple(steps)
    )


# ---------------------------------------------------------------------- #
# Charger schedules                                                       #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChargerSchedule:
    """A replayable charging-policy drive.

    Attributes:
        racks: Fleet width.
        dt: Step length in seconds.
        initial_socs: Per-rack starting state of charge.
        steps: Per step, ``(headroom_w, active, discharge_w)``: the
            charger sees the headroom under ``active``; the discharge
            vector then moves the fleet so the hysteresis state machine
            crosses its thresholds.
    """

    racks: int
    dt: float
    initial_socs: "tuple[float, ...]"
    steps: "tuple[tuple[tuple[float, ...], tuple[bool, ...], tuple[float, ...]], ...]"


@st.composite
def charger_schedules(draw) -> ChargerSchedule:
    """Headroom/activity drives for the charging policies."""
    racks = draw(st.integers(min_value=1, max_value=4))
    dt = draw(st.sampled_from(DTS))
    socs = tuple(
        draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=racks,
                max_size=racks,
            )
        )
    )
    n_steps = draw(st.integers(min_value=2, max_value=10))
    steps = []
    for _ in range(n_steps):
        headroom = tuple(
            draw(
                st.lists(
                    st.floats(0.0, 500.0, allow_nan=False),
                    min_size=racks,
                    max_size=racks,
                )
            )
        )
        active = tuple(
            draw(st.lists(st.booleans(), min_size=racks, max_size=racks))
        )
        discharge = tuple(
            draw(
                st.lists(
                    st.floats(0.0, 8000.0, allow_nan=False),
                    min_size=racks,
                    max_size=racks,
                )
            )
        )
        steps.append((headroom, active, discharge))
    return ChargerSchedule(
        racks=racks, dt=dt, initial_socs=socs, steps=tuple(steps)
    )


# ---------------------------------------------------------------------- #
# Topologies                                                              #
# ---------------------------------------------------------------------- #


@st.composite
def topology_configs(
    draw, max_pdus: int = 4, max_racks_per_pdu: int = 5
):
    """Hierarchies with 1-4 mid-tier PDU rows and uneven rack counts.

    About half the multi-PDU draws carry explicit budget fractions with
    a mild (+-10 %) skew away from the rack-count-proportional split —
    enough to exercise uneven per-PDU budgets without starving a row
    below its aggregate idle power (which :class:`ClusterConfig`
    rightly rejects).
    """
    from repro.config import TopologyConfig

    pdus = draw(st.integers(min_value=1, max_value=max_pdus))
    racks_per_pdu = tuple(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=max_racks_per_pdu),
                min_size=pdus,
                max_size=pdus,
            )
        )
    )
    fractions = None
    if pdus > 1 and draw(st.booleans()):
        weights = [
            n * draw(st.floats(0.9, 1.1, allow_nan=False))
            for n in racks_per_pdu
        ]
        total = sum(weights)
        fractions = tuple(w / total for w in weights)
    return TopologyConfig(
        racks_per_pdu=racks_per_pdu,
        pdu_budget_fractions=fractions,
        pdu_breaker_margin=draw(st.sampled_from((1.0, 1.05))),
    )


# ---------------------------------------------------------------------- #
# Fault plans                                                             #
# ---------------------------------------------------------------------- #

#: Fault kinds a generated plan may draw from. Kept as names so a shrunk
#: failing example reads as the fault it is.
FAULT_KINDS = (
    "telemetry-dropout",
    "telemetry-noise",
    "soc-bias",
    "soc-freeze",
    "vdeb-comm-loss",
    "battery-fade",
    "udeb-stuck-open",
    "breaker-misrating",
)


@st.composite
def fault_plans(draw, racks: int, horizon_s: float) -> FaultPlan:
    """Valid :class:`FaultPlan`\\ s with 1-4 windowed/one-shot specs.

    Windows land inside ``[0, horizon_s)`` with room to both start and
    clear mid-run, so the differential tests see injected *and* cleared
    edges. Rack targets are either ``None`` (whole cluster) or a
    non-empty subset of ``range(racks)``.
    """
    rack_targets = st.one_of(
        st.none(),
        st.sets(
            st.integers(min_value=0, max_value=racks - 1),
            min_size=1,
            max_size=racks,
        ).map(tuple),
    )

    def draw_window() -> "tuple[float, float]":
        start = draw(st.floats(0.0, 0.7 * horizon_s, allow_nan=False))
        length = draw(
            st.floats(0.05 * horizon_s, 0.5 * horizon_s, allow_nan=False)
        )
        return start, start + length

    def draw_spec(kind: str) -> FaultSpec:
        where = draw(rack_targets)
        if kind == "battery-fade":
            return BatteryFade(
                at_s=draw(st.floats(0.0, horizon_s, allow_nan=False)),
                fade=draw(st.floats(0.05, 0.6, allow_nan=False)),
                racks=where,
            )
        start_s, end_s = draw_window()
        if kind == "telemetry-dropout":
            return TelemetryDropout(start_s=start_s, end_s=end_s, racks=where)
        if kind == "telemetry-noise":
            return TelemetryNoise(
                start_s=start_s,
                end_s=end_s,
                sigma_w=draw(st.floats(10.0, 800.0, allow_nan=False)),
                racks=where,
            )
        if kind == "soc-bias":
            return SocBias(
                start_s=start_s,
                end_s=end_s,
                bias=draw(st.floats(-0.5, 0.5, allow_nan=False)),
                racks=where,
            )
        if kind == "soc-freeze":
            return SocFreeze(start_s=start_s, end_s=end_s, racks=where)
        if kind == "vdeb-comm-loss":
            return VdebCommLoss(start_s=start_s, end_s=end_s, racks=where)
        if kind == "udeb-stuck-open":
            return UdebStuckOpen(start_s=start_s, end_s=end_s, racks=where)
        return BreakerMisrating(
            start_s=start_s,
            end_s=end_s,
            factor=draw(st.floats(0.4, 2.0, allow_nan=False)),
            racks=where,
        )

    n_specs = draw(st.integers(min_value=1, max_value=4))
    # Distinct kinds per plan: FaultPlan rejects same-kind windows that
    # overlap on shared racks (last-writer-wins composition), and a
    # random window pair overlaps often enough that drawing duplicate
    # kinds would mostly generate invalid plans.
    kinds = draw(
        st.lists(
            st.sampled_from(FAULT_KINDS),
            min_size=n_specs,
            max_size=n_specs,
            unique=True,
        )
    )
    plan_specs = tuple(draw_spec(kind) for kind in kinds)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return FaultPlan(specs=plan_specs, seed=seed)


# ---------------------------------------------------------------------- #
# Grid plans                                                              #
# ---------------------------------------------------------------------- #

#: Grid-event kinds a generated plan may draw from.
GRID_KINDS = ("voltage-sag", "utility-brownout", "freq-regulation")


@st.composite
def grid_plans(draw, racks: int, horizon_s: float) -> "GridPlan":
    """Valid :class:`GridPlan`\\ s with 1-3 windowed disturbance specs.

    Windows land inside ``[0, horizon_s)`` with room to both open and
    clear mid-run, so the differential tests see the transfer-to-battery
    edge *and* the return-to-line edge. Kinds are distinct per plan —
    :class:`GridPlan` rejects same-kind windows overlapping on shared
    racks, and random window pairs overlap more often than not.
    """
    from repro.grid.spec import (
        FrequencyRegulationDuty,
        GridPlan,
        UtilityBrownout,
        VoltageSag,
    )

    rack_targets = st.one_of(
        st.none(),
        st.sets(
            st.integers(min_value=0, max_value=racks - 1),
            min_size=1,
            max_size=racks,
        ).map(tuple),
    )

    def draw_window() -> "tuple[float, float]":
        start = draw(st.floats(0.0, 0.7 * horizon_s, allow_nan=False))
        length = draw(
            st.floats(0.05 * horizon_s, 0.5 * horizon_s, allow_nan=False)
        )
        return start, start + length

    def draw_spec(kind: str):
        start_s, end_s = draw_window()
        if kind == "voltage-sag":
            return VoltageSag(
                start_s=start_s,
                end_s=end_s,
                depth=draw(st.floats(0.05, 0.6, allow_nan=False)),
                racks=draw(rack_targets),
            )
        if kind == "utility-brownout":
            return UtilityBrownout(
                start_s=start_s,
                end_s=end_s,
                derate=draw(st.floats(0.05, 0.5, allow_nan=False)),
            )
        return FrequencyRegulationDuty(
            start_s=start_s,
            end_s=end_s,
            power_w=draw(st.floats(200.0, 3000.0, allow_nan=False)),
            period_s=draw(st.sampled_from((20.0, 60.0, 120.0))),
            duty=draw(st.floats(0.2, 0.8, allow_nan=False)),
            floor_soc=draw(st.floats(0.0, 0.5, allow_nan=False)),
            racks=draw(rack_targets),
        )

    n_specs = draw(st.integers(min_value=1, max_value=3))
    kinds = draw(
        st.lists(
            st.sampled_from(GRID_KINDS),
            min_size=n_specs,
            max_size=n_specs,
            unique=True,
        )
    )
    return GridPlan(specs=tuple(draw_spec(kind) for kind in kinds))


# ---------------------------------------------------------------------- #
# Cohort grids                                                            #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CohortGrid:
    """A replayable batched-survival grid for the cohort backend.

    Each member is ``(scheme, attack, onset_s, nodes, seed)`` where
    ``attack`` names a base scenario shape (``"dense"``/``"sparse"``) or
    ``None`` for a benign cell. The differential test materialises the
    members, runs them stacked through
    :func:`repro.experiments.common.run_survival_cohort` and per cell
    through ``run_survival(backend="vectorized")``, and demands
    bit-identical :class:`SimResult`\\ s.

    Attributes:
        members: The grid, in caller order.
        window_s: Observation window (short — every example simulates).
        record_every: Recorder cadence in steps.
        expand_prefix: Whether the narrow-prefix expansion fast path is
            armed (results must be identical either way).
    """

    members: "tuple[tuple[str, str | None, float, int, int], ...]"
    window_s: float
    record_every: int
    expand_prefix: bool


#: Table-III scheme names, duplicated from
#: :data:`repro.experiments.common.SCHEME_ORDER` so this module keeps
#: importing only leaf modules.
COHORT_SCHEMES = ("Conv", "PS", "PSPC", "uDEB", "vDEB", "PAD")


@st.composite
def cohort_grids(draw) -> CohortGrid:
    """Small heterogeneous grids: shared schemes, mixed onsets/seeds.

    Deliberately biased toward repeated schemes (stacked families of
    width >= 2, where the batching actually batches) and toward at least
    one attacking cell; benign members and lone-scheme families stay in
    the mix because the width-1 forwarder path must hold too.
    """
    n_members = draw(st.integers(min_value=1, max_value=5))
    schemes = draw(
        st.lists(
            st.sampled_from(COHORT_SCHEMES),
            min_size=n_members,
            max_size=n_members,
        )
    )
    members = []
    for scheme in schemes:
        attack = draw(
            st.sampled_from(("dense", "dense", "sparse", None))
        )
        onset_s = draw(st.sampled_from((10.0, 25.0, 40.0)))
        nodes = draw(st.integers(min_value=2, max_value=4))
        seed = draw(st.sampled_from((7, 11, 23)))
        members.append((scheme, attack, onset_s, nodes, seed))
    return CohortGrid(
        members=tuple(members),
        window_s=draw(st.sampled_from((60.0, 90.0))),
        record_every=draw(st.sampled_from((1, 10))),
        expand_prefix=draw(st.booleans()),
    )


# ---------------------------------------------------------------------- #
# Kernel-tier dispatch schedules                                          #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class DispatchSchedule:
    """A replayable scheme-level drive for the kernel-tier differential.

    The compiled tier fuses the whole defense dispatch (KiBaM fleet,
    charger, supercap shave, LVD) into one kernel call; its contract is
    bit-identity with the numpy tier at the :class:`Dispatch` level,
    every tick, for every scheme. A schedule fixes everything that
    shapes a run; the demand trajectory itself comes from a seeded
    generator so examples stay small and shrink to readable knobs.

    Attributes:
        scheme: Table-III scheme name.
        charging: ``"online"`` or ``"offline"`` charging policy.
        racks: Cluster width.
        dt: Step length in seconds.
        n_steps: Ticks to replay.
        seed: Demand-trajectory generator seed.
        initial_soc: Fleet-wide starting state of charge.
        demand_span: ``(lo, hi)`` multipliers on the per-rack budget —
            spans crossing 1.0 exercise shave, battery and recharge.
        spike_prob: Per-tick probability of a 3x single-rack burst (the
            Phase-II hidden-spike shape that arms the uDEB path).
    """

    scheme: str
    charging: str
    racks: int
    dt: float
    n_steps: int
    seed: int
    initial_soc: float
    demand_span: "tuple[float, float]"
    spike_prob: float


@st.composite
def dispatch_schedules(draw) -> DispatchSchedule:
    """Scheme drives straddling quiescence, shave, drain and recharge."""
    lo = draw(st.floats(0.2, 0.7, allow_nan=False))
    hi = draw(st.floats(0.9, 1.6, allow_nan=False))
    return DispatchSchedule(
        scheme=draw(st.sampled_from(COHORT_SCHEMES)),
        charging=draw(st.sampled_from(("online", "offline"))),
        racks=draw(st.integers(min_value=2, max_value=6)),
        dt=draw(st.sampled_from((0.5, 1.0))),
        n_steps=draw(st.integers(min_value=20, max_value=60)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        initial_soc=draw(st.sampled_from((0.25, 0.6, 0.95))),
        demand_span=(lo, hi),
        spike_prob=draw(st.sampled_from((0.0, 0.05, 0.2))),
    )


# ---------------------------------------------------------------------- #
# Fast-path run toggles                                                   #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunToggles:
    """How a differential run is executed.

    The contract under test: *any* combination of backend and
    snapshot-forked execution publishes a run bit-identical to the
    plain per-step pipeline of the same backend. ``fork_step`` of
    ``None`` means a straight
    :meth:`~repro.sim.datacenter.DataCenterSimulation.run`; otherwise
    the run pauses after that many steps, snapshots, restores an
    independent copy and resumes it.

    Attributes:
        backend: ``"scalar"`` or ``"vectorized"``.
        fork_step: Pause/snapshot/resume boundary in steps, or ``None``.
    """

    backend: str
    fork_step: "int | None"


@st.composite
def run_toggles(draw, max_fork_step: int) -> RunToggles:
    """Backend x fork combinations, with fork points on the step grid.

    ``max_fork_step`` bounds the pause point (exclusive of the run ends:
    a fork at step 0 or at the final step degenerates to a straight
    run, which the ``None`` case already covers).
    """
    fork = draw(
        st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=max_fork_step - 1),
        )
    )
    return RunToggles(
        backend=draw(st.sampled_from(("scalar", "vectorized"))),
        fork_step=fork,
    )


def assert_results_identical(label: str, reference, candidate) -> None:
    """Demand *bit-identical* :class:`SimResult`\\ s, field by field.

    Stronger than :func:`assert_agree`: the fast paths (recorder
    buffers, snapshot forking, cohort stacking) are designed to
    reproduce the per-step pipeline exactly, so every work integral,
    every recorder sample, every event and every trip must match with
    ``==``, not within a tolerance.
    """
    assert candidate.scheme == reference.scheme, label
    assert candidate.start_s == reference.start_s, label
    assert candidate.end_s == reference.end_s, label
    assert candidate.attack_start_s == reference.attack_start_s, label
    assert candidate.delivered_work == reference.delivered_work, (
        f"{label}: delivered_work "
        f"{candidate.delivered_work!r} != {reference.delivered_work!r}"
    )
    assert candidate.demanded_work == reference.demanded_work, (
        f"{label}: demanded_work "
        f"{candidate.demanded_work!r} != {reference.demanded_work!r}"
    )
    for stream in ("events", "overloads", "trips", "faults", "grid"):
        got = [repr(e) for e in getattr(candidate, stream)]
        want = [repr(e) for e in getattr(reference, stream)]
        assert got == want, f"{label}: {stream} diverged"
    rec_c, rec_r = candidate.recorder, reference.recorder
    assert rec_c.channels == rec_r.channels, label
    assert rec_c.vector_channels == rec_r.vector_channels, label
    for channel in rec_r.channels:
        if not np.array_equal(
            rec_c.series(channel), rec_r.series(channel)
        ):
            raise AssertionError(
                f"{label}: series {channel!r} not bit-identical"
            )
    for channel in rec_r.vector_channels:
        if not np.array_equal(
            rec_c.matrix(channel), rec_r.matrix(channel)
        ):
            raise AssertionError(
                f"{label}: matrix {channel!r} not bit-identical"
            )
