"""Cluster model: machines -> racks -> electrical power.

Binds the workload view (per-machine CPU utilisation) to the electrical
view (per-rack power demand) using the server power model. Machines are
assigned to racks in order — machine ``m`` lives in rack
``m // servers_per_rack`` — matching the paper's 22 racks x 10 servers
hosting the ~220-machine Google trace.

The model also owns the server *availability* state the defenses
manipulate: DVFS-capped servers draw capped power and lose throughput;
shed (sleeping) servers draw a small sleep power and deliver nothing;
servers behind a tripped rack breaker are down entirely.
"""

from __future__ import annotations

import numpy as np

from ..config import ClusterConfig
from ..errors import ConfigError
from ..power.server import ServerPowerModel

#: Power drawn by a server in deep sleep / hibernation, as a fraction of
#: its idle power. S4-style states park well below active idle.
SLEEP_POWER_FRACTION = 0.10


class ClusterModel:
    """Maps per-machine utilisation to per-rack power and throughput.

    Args:
        config: Cluster layout and server power parameters.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self._config = config
        self._server_model = ServerPowerModel(config.rack.server)
        self._servers = config.total_servers
        self._racks = config.racks
        self._per_rack = config.rack.servers
        self._rack_of = np.arange(self._servers) // self._per_rack
        # Scalar coefficients of the power and throughput expressions,
        # read once (the configs are frozen).
        server = config.rack.server
        self._idle_w = server.idle_w
        self._dynamic_w = server.dynamic_range_w
        self._capped_scale = 1.0 - server.dvfs_power_reduction
        self._sleep_w = server.idle_w * SLEEP_POWER_FRACTION
        self._dvfs_keep = 1.0 - server.dvfs_throughput_penalty

    # ------------------------------------------------------------------ #
    # Layout                                                              #
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> ClusterConfig:
        """The cluster configuration."""
        return self._config

    @property
    def servers(self) -> int:
        """Total machine count."""
        return self._servers

    @property
    def racks(self) -> int:
        """Rack count."""
        return self._racks

    @property
    def server_model(self) -> ServerPowerModel:
        """The shared per-server power model."""
        return self._server_model

    def rack_of(self, machine_id: int) -> int:
        """Rack hosting ``machine_id``."""
        if not 0 <= machine_id < self._servers:
            raise ConfigError(
                f"machine {machine_id} outside cluster of {self._servers}"
            )
        return int(self._rack_of[machine_id])

    def machines_in_rack(self, rack_id: int) -> np.ndarray:
        """Machine ids hosted by ``rack_id``."""
        if not 0 <= rack_id < self._racks:
            raise ConfigError(f"rack {rack_id} outside cluster of {self._racks}")
        return np.nonzero(self._rack_of == rack_id)[0]

    def _check_vector(self, name: str, vector: np.ndarray) -> np.ndarray:
        array = np.asarray(vector)
        if array.shape != (self._servers,):
            raise ConfigError(
                f"{name} must have shape ({self._servers},), got {array.shape}"
            )
        return array

    def _mask(
        self, name: str, mask: "np.ndarray | None"
    ) -> "np.ndarray | None":
        """``mask`` shape-checked, or ``None`` when absent or all-false.

        An all-false mask changes no figure, so dropping it only skips
        the ``where`` work it would cost.
        """
        if mask is None:
            return None
        mask = self._check_vector(name, mask)
        return mask if mask.any() else None

    def clip_utilisation(self, utilisation: np.ndarray) -> np.ndarray:
        """Checked per-machine utilisation, clipped to ``[0, 1]``.

        Every power and throughput figure starts from this one clip; a
        simulation step clips once and hands the result to both
        :meth:`rack_power_clipped` and :meth:`work_from_clipped`.
        """
        return self._check_vector("utilisation", utilisation).clip(0.0, 1.0)

    # ------------------------------------------------------------------ #
    # Power                                                               #
    # ------------------------------------------------------------------ #

    def server_power(
        self,
        utilisation: np.ndarray,
        capped: "np.ndarray | None" = None,
        asleep: "np.ndarray | None" = None,
        down_racks: "list[int] | None" = None,
    ) -> np.ndarray:
        """Per-server electrical power for the given state.

        Args:
            utilisation: Per-machine CPU utilisation in [0, 1].
            capped: Boolean mask of DVFS-capped servers.
            asleep: Boolean mask of shed (sleeping) servers.
            down_racks: Racks whose breaker is open — their servers draw
                nothing.
        """
        return self._server_power_clipped(
            self.clip_utilisation(utilisation),
            self._mask("capped", capped),
            self._mask("asleep", asleep),
            down_racks,
        )

    def _server_power_clipped(
        self,
        u: np.ndarray,
        capped: "np.ndarray | None",
        asleep: "np.ndarray | None",
        down_racks: "list[int] | None",
    ) -> np.ndarray:
        """Per-server power from clipped utilisation and per-server masks.

        The expressions are :meth:`ServerPowerModel.power` and
        :meth:`ServerPowerModel.capped_power` term for term; their own
        clip is skipped because clipping a clipped array is the identity.
        """
        power = np.asarray(self._idle_w + u * self._dynamic_w, dtype=float)
        if capped is not None:
            power = np.where(
                capped,
                self._idle_w + u * self._capped_scale * self._dynamic_w,
                power,
            )
        if asleep is not None:
            power = np.where(asleep, self._sleep_w, power)
        if down_racks:
            down_mask = np.isin(self._rack_of, np.asarray(down_racks, dtype=int))
            power = np.where(down_mask, 0.0, power)
        return power

    def rack_power(
        self,
        utilisation: np.ndarray,
        capped: "np.ndarray | None" = None,
        asleep: "np.ndarray | None" = None,
        down_racks: "list[int] | None" = None,
    ) -> np.ndarray:
        """Per-rack power demand ``p_i``, summed over the rack's servers."""
        power = self.server_power(utilisation, capped, asleep, down_racks)
        return np.bincount(self._rack_of, weights=power, minlength=self._racks)

    def rack_power_clipped(
        self,
        u: np.ndarray,
        capped: "np.ndarray | None" = None,
        asleep: "np.ndarray | None" = None,
        down_racks: "list[int] | None" = None,
    ) -> np.ndarray:
        """:meth:`rack_power` of :meth:`clip_utilisation`'s result.

        The masks are used as given, unchecked: pass one entry per server,
        or ``None`` for a mask with no true entry (an all-false mask gives
        the same figures, at the cost of a ``where``).
        """
        power = self._server_power_clipped(u, capped, asleep, down_racks)
        return np.bincount(self._rack_of, weights=power, minlength=self._racks)

    def sum_to_racks(self, per_server: np.ndarray) -> np.ndarray:
        """Sum any per-server quantity into per-rack totals."""
        values = self._check_vector("per_server", per_server)
        return np.bincount(
            self._rack_of, weights=values.astype(float), minlength=self._racks
        )

    # ------------------------------------------------------------------ #
    # Throughput                                                          #
    # ------------------------------------------------------------------ #

    def throughput(
        self,
        utilisation: np.ndarray,
        capped: "np.ndarray | None" = None,
        asleep: "np.ndarray | None" = None,
        down_racks: "list[int] | None" = None,
    ) -> float:
        """Delivered work this instant, in machine-utilisation units.

        Healthy servers deliver their utilisation; capped servers lose the
        DVFS penalty; sleeping and down servers deliver nothing. Summed
        over the cluster — this is the integrand of the paper's Fig. 16
        performance metric.
        """
        u = self.clip_utilisation(utilisation)
        return float(self.delivered_vector(u, capped, asleep, down_racks).sum())

    def delivered_vector(
        self,
        u: np.ndarray,
        capped: "np.ndarray | None" = None,
        asleep: "np.ndarray | None" = None,
        down_racks: "list[int] | None" = None,
    ) -> np.ndarray:
        """Per-server delivered work from already-clipped utilisation.

        The cohort backend sums this per cell; :meth:`throughput` and
        :meth:`work_from_clipped` sum it over the whole fleet.
        """
        return self._delivered(
            u,
            self._mask("capped", capped),
            self._mask("asleep", asleep),
            down_racks,
        )

    def _delivered(
        self,
        u: np.ndarray,
        capped: "np.ndarray | None",
        asleep: "np.ndarray | None",
        down_racks: "list[int] | None",
    ) -> np.ndarray:
        """:meth:`delivered_vector` with the masks used as given."""
        delivered = u.astype(float)
        if capped is not None:
            delivered = np.where(capped, delivered * self._dvfs_keep, delivered)
        if asleep is not None:
            delivered = np.where(asleep, 0.0, delivered)
        if down_racks:
            down_mask = np.isin(self._rack_of, np.asarray(down_racks, dtype=int))
            delivered = np.where(down_mask, 0.0, delivered)
        return delivered

    def work_from_clipped(
        self,
        u: np.ndarray,
        capped: "np.ndarray | None" = None,
        asleep: "np.ndarray | None" = None,
        down_racks: "list[int] | None" = None,
    ) -> "tuple[float, float]":
        """``(delivered, demanded)`` work this instant, from
        :meth:`clip_utilisation`'s result.

        Equal to :meth:`throughput` and :meth:`demanded_throughput` of
        the unclipped utilisation. The masks are used as given, as in
        :meth:`rack_power_clipped`. With none of them, the delivered
        vector is an exact float64 copy of ``u``, so the delivered sum
        *is* the demanded sum.
        """
        demanded = float(u.sum())
        if (
            capped is None
            and asleep is None
            and not down_racks
            and u.dtype == np.float64
        ):
            return demanded, demanded
        delivered = self._delivered(u, capped, asleep, down_racks)
        return float(delivered.sum()), demanded

    def demanded_throughput(self, utilisation: np.ndarray) -> float:
        """Work demanded this instant — the throughput denominator."""
        return float(self.clip_utilisation(utilisation).sum())
