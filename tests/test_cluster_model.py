"""Cluster power-model tests."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.workload import ClusterModel
from repro.workload.cluster import SLEEP_POWER_FRACTION

from .differential import ServerState, server_states


@pytest.fixture
def cluster():
    return ClusterModel(ClusterConfig(racks=3))


class TestLayout:
    def test_rack_mapping(self, cluster):
        assert cluster.rack_of(0) == 0
        assert cluster.rack_of(9) == 0
        assert cluster.rack_of(10) == 1
        assert list(cluster.machines_in_rack(2)) == list(range(20, 30))

    def test_rack_of_bounds(self, cluster):
        with pytest.raises(ConfigError):
            cluster.rack_of(30)
        with pytest.raises(ConfigError):
            cluster.machines_in_rack(3)


class TestPower:
    def test_idle_cluster(self, cluster):
        power = cluster.rack_power(np.zeros(30))
        assert power == pytest.approx([2990.0] * 3)

    def test_full_cluster(self, cluster):
        power = cluster.rack_power(np.ones(30))
        assert power == pytest.approx([5210.0] * 3)

    def test_capped_servers_draw_less(self, cluster):
        util = np.ones(30)
        capped = np.zeros(30, dtype=bool)
        capped[:10] = True  # cap all of rack 0
        power = cluster.rack_power(util, capped=capped)
        assert power[0] < power[1]
        assert power[0] == pytest.approx(10 * (299.0 + 0.8 * 222.0))

    def test_sleeping_servers_draw_sleep_power(self, cluster):
        util = np.full(30, 0.5)
        asleep = np.zeros(30, dtype=bool)
        asleep[0] = True
        power = cluster.server_power(util, asleep=asleep)
        assert power[0] == pytest.approx(299.0 * SLEEP_POWER_FRACTION)

    def test_down_racks_draw_nothing(self, cluster):
        power = cluster.rack_power(np.full(30, 0.5), down_racks=[1])
        assert power[1] == 0.0
        assert power[0] > 0.0

    def test_shape_validation(self, cluster):
        with pytest.raises(ConfigError):
            cluster.rack_power(np.zeros(10))

    def test_sum_to_racks(self, cluster):
        values = np.ones(30)
        assert cluster.sum_to_racks(values) == pytest.approx([10.0] * 3)


class TestThroughput:
    def test_healthy_equals_demand(self, cluster):
        util = np.full(30, 0.5)
        assert cluster.throughput(util) == pytest.approx(15.0)
        assert cluster.demanded_throughput(util) == pytest.approx(15.0)

    def test_capping_penalty(self, cluster):
        util = np.full(30, 0.5)
        capped = np.ones(30, dtype=bool)
        assert cluster.throughput(util, capped=capped) == pytest.approx(
            15.0 * 0.8
        )

    def test_sleep_and_down_lose_work(self, cluster):
        util = np.full(30, 0.5)
        asleep = np.zeros(30, dtype=bool)
        asleep[:10] = True
        assert cluster.throughput(util, asleep=asleep) == pytest.approx(10.0)
        assert cluster.throughput(util, down_racks=[0, 1]) == pytest.approx(5.0)


# ---------------------------------------------------------------------- #
# One clip per step, shared by demand and accounting                      #
# ---------------------------------------------------------------------- #


def _reference_power(cluster, util, capped, asleep, down):
    """Rack power the general way: clip, then the server model's own
    (clipping) expressions, then every mask through ``where``."""
    model = cluster.server_model
    u = np.clip(util, 0.0, 1.0)
    power = np.asarray(model.power(u), dtype=float)
    if capped.any():
        power = np.where(capped.astype(bool), model.capped_power(u), power)
    if asleep.any():
        sleep_w = model.idle_w * SLEEP_POWER_FRACTION
        power = np.where(asleep.astype(bool), sleep_w, power)
    rack_of = np.arange(cluster.servers) // cluster.config.rack.servers
    if down:
        power = np.where(np.isin(rack_of, list(down)), 0.0, power)
    return np.bincount(rack_of, weights=power, minlength=cluster.racks)


def _reference_work(cluster, util, capped, asleep, down):
    """``(delivered, demanded)`` the general way: clip, then every mask."""
    u = np.clip(util, 0.0, 1.0)
    delivered = u.astype(float)
    if capped.any():
        keep = 1.0 - cluster.config.rack.server.dvfs_throughput_penalty
        delivered = np.where(capped, delivered * keep, delivered)
    if asleep.any():
        delivered = np.where(asleep, 0.0, delivered)
    rack_of = np.arange(cluster.servers) // cluster.config.rack.servers
    if down:
        delivered = np.where(np.isin(rack_of, list(down)), 0.0, delivered)
    return float(np.sum(delivered)), float(np.sum(u))


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(state=server_states())
def test_shared_clip_matches_the_general_path(state: ServerState):
    """The demand stage's inputs to power and accounting, bit for bit.

    The stage clips once and passes an all-false mask as ``None``; the
    general path clips in every call and tests every mask.
    """
    cluster = ClusterModel(ClusterConfig(racks=state.racks))
    util = np.asarray(
        state.util, dtype=np.float32 if state.float32 else float
    )
    capped_racks = np.asarray(state.capped_racks)
    capped = capped_racks[np.arange(cluster.servers) // 10]
    asleep = np.asarray(state.asleep)
    down = list(state.down_racks)
    u = cluster.clip_utilisation(util)
    capped_arg = capped if capped_racks.any() else None
    asleep_arg = asleep if asleep.any() else None

    power = cluster.rack_power_clipped(u, capped_arg, asleep_arg, down)
    expected_power = _reference_power(cluster, util, capped, asleep, down)
    assert _bits(power) == _bits(expected_power)
    assert _bits(cluster.rack_power(util, capped, asleep, down)) == _bits(
        expected_power
    )

    work = cluster.work_from_clipped(u, capped_arg, asleep_arg, down)
    expected_work = _reference_work(cluster, util, capped, asleep, down)
    assert _bits(work) == _bits(expected_work)
    assert _bits(
        (cluster.throughput(util, capped, asleep, down),
         cluster.demanded_throughput(util))
    ) == _bits(expected_work)
