"""The defense layer's sensor boundary: held telemetry with a staleness TTL.

The schemes' software plane never reads simulator state directly any
more; everything metered flows through a :class:`TelemetryView`:

* The simulation *observes* the management meters into the view every
  tick. A telemetry fault (dropout, comm loss) simply stops observations
  on the affected racks — the view then **holds the last value** and its
  age grows.
* Inside the TTL the held value is served as-is (hold-last-value: real
  BMC/iPDU pollers ride out short gaps the same way).
* Past the TTL the view reports *stale* and schemes must fail safe —
  conservative soft-limit floors, policy escalation — instead of acting
  on frozen readings.
* SOC sensor faults (bias, freeze) and vDEB controller↔rack comm loss
  are modelled here too, because they are sensor-path faults: the
  batteries keep their true physics, only the *reported* values lie.

On the no-fault path the view is exact and allocation-free in behaviour:
observations store references (the meter publishes fresh arrays, never
mutates them), reads hand out copies exactly like the pre-view pipeline
did, and the SOC accessors return the fleet's own vectors untouched —
which is what keeps the golden traces bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..errors import FaultInjectionError

__all__ = ["TelemetryView"]


class TelemetryView:
    """Last-known-good metered telemetry plus sensor-fault state.

    Args:
        racks: Number of racks (width of the rack channels).
        servers: Number of servers (width of the utilisation channel).
        ttl_s: Staleness TTL — the longest a held value may be served
            before the view declares itself stale.
        initial_rack_avg_w: Prior served before the first observation
            (the provisioned budgets, matching the simulator's meters).
        initial_server_util: Prior per-server utilisation.
    """

    def __init__(
        self,
        racks: int,
        servers: int,
        ttl_s: float,
        initial_rack_avg_w: "np.ndarray | None" = None,
        initial_server_util: "np.ndarray | None" = None,
    ) -> None:
        if racks <= 0 or servers <= 0:
            raise FaultInjectionError("telemetry needs racks and servers")
        if ttl_s <= 0.0:
            raise FaultInjectionError("telemetry TTL must be positive")
        self._racks = racks
        self._servers = servers
        self._ttl_s = float(ttl_s)
        self._rack_avg_w = (
            np.zeros(racks)
            if initial_rack_avg_w is None
            else np.asarray(initial_rack_avg_w, dtype=float).copy()
        )
        self._server_util = (
            np.zeros(servers)
            if initial_server_util is None
            else np.asarray(initial_server_util, dtype=float).copy()
        )
        # None until the first observation: a standalone scheme that is
        # never fed telemetry must look fresh (age 0), not stale.
        self._rack_updated_s: "np.ndarray | None" = None
        # Time of the last observation that reached every rack, while no
        # masked observation has come since: every entry of
        # ``_rack_updated_s`` equals it, so the age at that time is 0.0.
        self._fresh_at: "float | None" = None
        # Sensor-fault state; None means the transparent healthy path.
        self._soc_bias: "np.ndarray | None" = None
        self._soc_freeze_mask: "np.ndarray | None" = None
        self._soc_frozen: "np.ndarray | None" = None
        self._comm_ok: "np.ndarray | None" = None

    # ------------------------------------------------------------------ #
    # Observation / freshness                                             #
    # ------------------------------------------------------------------ #

    @property
    def ttl_s(self) -> float:
        """The staleness TTL in seconds."""
        return self._ttl_s

    def observe(
        self,
        time_s: float,
        rack_avg_w: np.ndarray,
        server_util: np.ndarray,
        rack_mask: "np.ndarray | None" = None,
        server_mask: "np.ndarray | None" = None,
    ) -> None:
        """Record a meter reading; masks limit which entries arrive.

        ``rack_mask``/``server_mask`` name the entries that *did* get
        through (``None`` = all). Dropped entries keep their held value
        and their age keeps growing. The stored arrays are referenced,
        not copied — the meters publish fresh arrays on every interval
        and never mutate them in place.
        """
        if self._rack_updated_s is None:
            self._rack_updated_s = np.full(self._racks, time_s)
        if rack_mask is None:
            self._rack_avg_w = rack_avg_w
            self._rack_updated_s[:] = time_s
            self._fresh_at = time_s
        else:
            held = self._rack_avg_w.copy()
            held[rack_mask] = rack_avg_w[rack_mask]
            self._rack_avg_w = held
            self._rack_updated_s[rack_mask] = time_s
            self._fresh_at = None
        if server_mask is None:
            self._server_util = server_util
        else:
            held_util = self._server_util.copy()
            held_util[server_mask] = server_util[server_mask]
            self._server_util = held_util

    def rack_avg_w(self) -> np.ndarray:
        """Held per-rack metered average (a private copy)."""
        return self._rack_avg_w.copy()

    def server_util(self) -> np.ndarray:
        """Held per-server metered utilisation (a private copy)."""
        return self._server_util.copy()

    def age_s(self, time_s: float) -> float:
        """Age of the *oldest* rack channel; 0 before any observation."""
        if self._rack_updated_s is None:
            return 0.0
        if time_s == self._fresh_at:
            # Every channel was stamped at ``time_s`` (the healthy path):
            # the reduction below would return ``time_s - time_s``.
            return 0.0
        return float(time_s - self._rack_updated_s.min())

    def is_stale(self, time_s: float) -> bool:
        """True once any rack channel outlives the TTL."""
        return self.age_s(time_s) > self._ttl_s

    def fresh_racks(self, time_s: float) -> np.ndarray:
        """Per-rack mask of channels still inside the TTL."""
        if self._rack_updated_s is None:
            return np.ones(self._racks, dtype=bool)
        return (time_s - self._rack_updated_s) <= self._ttl_s

    # ------------------------------------------------------------------ #
    # SOC sensor path                                                     #
    # ------------------------------------------------------------------ #

    def set_soc_bias(self, bias: "np.ndarray | None") -> None:
        """Add a per-rack offset to every sensed SOC (``None`` heals)."""
        if bias is None:
            self._soc_bias = None
            return
        vec = np.asarray(bias, dtype=float)
        if vec.shape != (self._racks,):
            raise FaultInjectionError("need one SOC bias per rack")
        self._soc_bias = vec.copy()

    def set_soc_freeze(
        self,
        mask: "np.ndarray | None",
        frozen: "np.ndarray | None" = None,
    ) -> None:
        """Freeze masked racks' sensed SOC at ``frozen`` (``None`` heals)."""
        if mask is None:
            self._soc_freeze_mask = None
            self._soc_frozen = None
            return
        freeze = np.asarray(mask, dtype=bool)
        if freeze.shape != (self._racks,) or frozen is None:
            raise FaultInjectionError(
                "SOC freeze needs a rack mask and frozen values"
            )
        self._soc_freeze_mask = freeze.copy()
        self._soc_frozen = np.asarray(frozen, dtype=float).copy()

    @property
    def soc_sensor_faulted(self) -> bool:
        """True while any SOC bias/freeze fault is active."""
        return self._soc_bias is not None or self._soc_freeze_mask is not None

    def battery_soc(self, fleet) -> np.ndarray:
        """The per-rack SOC the *controller* sees.

        Healthy path: the fleet's own (memoised) vector, untouched — zero
        cost and bit-identical to pre-fault behaviour. Faulted path:
        freeze overrides, then bias, clipped to the physical range.
        """
        soc = fleet.soc_vector()
        if self._soc_freeze_mask is None and self._soc_bias is None:
            return soc
        if self._soc_freeze_mask is not None:
            soc = np.where(self._soc_freeze_mask, self._soc_frozen, soc)
        if self._soc_bias is not None:
            soc = np.clip(soc + self._soc_bias, 0.0, 1.0)
        return soc

    def pool_soc(self, fleet) -> float:
        """The fleet-wide SOC the *policy engine* sees.

        Healthy path: the fleet's own ``pool_soc``. Faulted path: the
        capacity-weighted mean of the sensed per-rack SOCs — the pool
        gauge aggregates the same lying sensors.
        """
        if not self.soc_sensor_faulted:
            return fleet.pool_soc
        capacity = fleet.capacity_j_vector()
        total = float(np.sum(capacity))
        if total <= 0.0:
            return 0.0
        sensed = self.battery_soc(fleet)
        return float(np.sum(sensed * capacity) / total)

    # ------------------------------------------------------------------ #
    # vDEB controller <-> rack communication                              #
    # ------------------------------------------------------------------ #

    def set_comm_loss(self, lost: "np.ndarray | None") -> None:
        """Cut the controller's link to masked racks (``None`` heals)."""
        if lost is None:
            self._comm_ok = None
            return
        mask = np.asarray(lost, dtype=bool)
        if mask.shape != (self._racks,):
            raise FaultInjectionError("need one comm-loss entry per rack")
        self._comm_ok = ~mask

    @property
    def comm_ok(self) -> "np.ndarray | None":
        """Per-rack reachability mask; ``None`` while every link is up."""
        return self._comm_ok

    def ff_state(self, now_s: float) -> dict:
        """Evolving state for the cohort freeze fingerprint.

        Update stamps are normalised to ages relative to ``now_s`` so
        they compare across time windows; held readings and every
        sensor-fault knob are included verbatim.
        """
        return {
            "rack_avg_w": self._rack_avg_w,
            "server_util": self._server_util,
            "rack_age_s": (
                None
                if self._rack_updated_s is None
                else now_s - self._rack_updated_s
            ),
            "soc_bias": self._soc_bias,
            "soc_freeze_mask": self._soc_freeze_mask,
            "soc_frozen": self._soc_frozen,
            "comm_ok": self._comm_ok,
        }

    def reset(self) -> None:
        """Forget observations and heal every sensor fault."""
        self._rack_updated_s = None
        self._fresh_at = None
        self._soc_bias = None
        self._soc_freeze_mask = None
        self._soc_frozen = None
        self._comm_ok = None
