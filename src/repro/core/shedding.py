"""Level-3 load shedding (paper §4.1, §6.1, Fig. 14).

When both backup layers are exhausted and demand still exceeds the budget,
PAD "puts some servers into sleeping/hibernating states or triggers load
migration from vulnerable racks to dependable racks". The paper's result:
shedding *less than 3 %* of the cluster's servers is enough to flatten the
battery-usage map under cluster-wide surges.

Selection uses *metered* utilisation — the shedder sees what monitoring
sees. That has a security consequence the paper leans on: a Phase-I
visible peak makes the attacker's own nodes the hottest metered servers,
so shedding tends to disrupt the attack ("shutting down some vulnerable
loads may disrupt the attack process"); Phase-II hidden spikes, being
invisible to metering, are for the uDEB, not the shedder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PolicyConfig
from ..errors import ConfigError


@dataclass(frozen=True)
class SheddingDecision:
    """Outcome of one shedder update.

    Attributes:
        asleep: Boolean per-server mask after the update.
        newly_shed: Server ids put to sleep this update.
        newly_released: Server ids woken this update.
        target_reduction_w: Demand reduction the shedder aimed for.
    """

    asleep: np.ndarray
    newly_shed: tuple[int, ...]
    newly_released: tuple[int, ...]
    target_reduction_w: float

    @property
    def shed_count(self) -> int:
        """Servers currently asleep."""
        return int(np.sum(self.asleep))

    @property
    def changed(self) -> bool:
        """True when this update shed or released at least one server."""
        return bool(self.newly_shed or self.newly_released)


class LoadShedder:
    """Hysteretic, capped, metered-utilisation-driven server shedder.

    Args:
        config: Policy parameters (ratio cap, hysteresis).
        servers: Cluster size.
        per_server_saving_w: Demand reduction gained by sleeping one
            server (its dynamic power plus most of its idle power).
        critical: Optional boolean mask of servers that must never be
            shed (the "non-critical loads only" rule).
    """

    def __init__(
        self,
        config: PolicyConfig,
        servers: int,
        per_server_saving_w: float,
        critical: "np.ndarray | None" = None,
    ) -> None:
        if servers <= 0:
            raise ConfigError("need at least one server")
        if per_server_saving_w <= 0.0:
            raise ConfigError("per-server saving must be positive")
        self._config = config
        self._servers = servers
        self._saving_w = per_server_saving_w
        self._max_shed = max(1, int(config.shed_ratio_cap * servers))
        self._asleep = np.zeros(servers, dtype=bool)
        self._shed_at = np.full(servers, -np.inf)
        if critical is None:
            self._critical = np.zeros(servers, dtype=bool)
        else:
            critical = np.asarray(critical, dtype=bool)
            if critical.shape != (servers,):
                raise ConfigError("critical mask must have one entry per server")
            self._critical = critical.copy()

    @property
    def max_shed(self) -> int:
        """Hard cap on simultaneously shed servers (the <=3 % rule)."""
        return self._max_shed

    @property
    def asleep(self) -> np.ndarray:
        """Current sleep mask (copy)."""
        return self._asleep.copy()

    @property
    def shed_ratio(self) -> float:
        """Fraction of the cluster currently asleep."""
        return float(np.sum(self._asleep)) / self._servers

    @property
    def any_asleep(self) -> bool:
        """True when at least one server is currently shed.

        With nothing asleep and no required reduction, :meth:`update`
        is a structural no-op — callers on hot paths use this to skip
        the call.
        """
        return bool(self._asleep.any())

    def update(
        self,
        now_s: float,
        metered_util: np.ndarray,
        required_reduction_w: float,
        prefer: "np.ndarray | None" = None,
    ) -> SheddingDecision:
        """Recompute the sleep set.

        Args:
            now_s: Current time (drives hysteresis).
            metered_util: Per-server utilisation *as seen by monitoring* —
                interval averages, not instantaneous truth.
            required_reduction_w: Demand the cluster must drop to get back
                inside its budget; zero or negative releases servers.
            prefer: Optional per-server mask of servers whose relief is
                load-bearing *where they sit* — e.g. servers on a
                sag-drained rack about to brown out against a derated
                breaker. Preferred servers shed before hotter ones
                elsewhere, and the cap-reached rotation swaps toward
                them unconditionally (the preference itself is the
                justification; raw wattage is not). ``None`` keeps the
                historical hottest-first behaviour bit-for-bit.
        """
        util = np.asarray(metered_util, dtype=float)
        if util.shape != (self._servers,):
            raise ConfigError("need one metered utilisation per server")
        if prefer is not None:
            prefer = np.asarray(prefer, dtype=bool)
            if prefer.shape != (self._servers,):
                raise ConfigError("need one preference flag per server")
            if not prefer.any():
                prefer = None
        newly_shed: list[int] = []
        newly_released: list[int] = []
        shed_now = int(np.sum(self._asleep))
        # ``required_reduction_w`` is measured on a cluster where the
        # current sleepers are already dark; reason about the
        # counterfactual excess so shedding does not mask its own trigger
        # and oscillate.
        effective_w = required_reduction_w + shed_now * self._saving_w
        if effective_w > 0.0:
            target = min(
                int(np.ceil(effective_w / self._saving_w)), self._max_shed
            )
        else:
            target = 0
        if target > shed_now:
            candidates = np.nonzero(~self._asleep & ~self._critical)[0]
            # Hottest metered servers first — they buy the most relief.
            order = candidates[np.argsort(-util[candidates], kind="stable")]
            if prefer is not None:
                preferred = prefer[order]
                order = np.concatenate(
                    [order[preferred], order[~preferred]]
                )
            for server in order[: target - shed_now]:
                self._asleep[server] = True
                self._shed_at[server] = now_s
                newly_shed.append(int(server))
        elif target < shed_now:
            # Release surplus sleepers whose hysteresis window has
            # elapsed, coldest first.
            sleeping = np.nonzero(self._asleep)[0]
            eligible = [
                int(s)
                for s in sleeping
                if now_s - self._shed_at[s] >= self._config.shed_hysteresis_s
            ]
            eligible.sort(key=lambda s: util[s])
            for server in eligible[: shed_now - target]:
                self._asleep[server] = False
                newly_released.append(server)
        elif required_reduction_w > 0.0:
            # The cap is reached but the measured excess persists: the
            # current sleep set is not delivering (the hot load moved).
            # Rotate — swap the coldest eligible sleeper for a hotter
            # awake server, one per update to avoid thrash.
            sleeping = np.nonzero(self._asleep)[0]
            eligible = [
                int(s)
                for s in sleeping
                if now_s - self._shed_at[s] >= self._config.shed_hysteresis_s
            ]
            awake = np.nonzero(~self._asleep & ~self._critical)[0]
            preferred_awake = (
                awake[prefer[awake]] if prefer is not None else awake[:0]
            )
            if preferred_awake.size:
                # A preferred server is still awake: swap it in for the
                # coldest non-preferred sleeper, unconditionally — the
                # relief is needed where the preferred server sits, not
                # where the watts are largest. Release hysteresis is
                # bypassed: it exists to stop flapping, and an imminent
                # brown-out outranks flap protection.
                swappable = [
                    int(s) for s in sleeping if not prefer[s]
                ]
                if swappable:
                    coldest = min(swappable, key=lambda s: util[s])
                    hottest = int(
                        preferred_awake[np.argmax(util[preferred_awake])]
                    )
                    self._asleep[coldest] = False
                    newly_released.append(coldest)
                    self._asleep[hottest] = True
                    self._shed_at[hottest] = now_s
                    newly_shed.append(hottest)
            elif eligible and awake.size:
                coldest = min(eligible, key=lambda s: util[s])
                hottest = int(awake[np.argmax(util[awake])])
                if util[hottest] > util[coldest]:
                    self._asleep[coldest] = False
                    newly_released.append(coldest)
                    self._asleep[hottest] = True
                    self._shed_at[hottest] = now_s
                    newly_shed.append(hottest)
        return SheddingDecision(
            asleep=self._asleep.copy(),
            newly_shed=tuple(newly_shed),
            newly_released=tuple(newly_released),
            target_reduction_w=max(0.0, required_reduction_w),
        )

    def ff_state(self, now_s: float) -> dict:
        """Evolving state for the cohort freeze fingerprint.

        ``_shed_at`` holds absolute times, so it is normalised to ages
        relative to ``now_s`` (never-shed servers sit at ``+inf`` age,
        which compares equal across windows).
        """
        return {
            "asleep": self._asleep,
            "shed_age_s": now_s - self._shed_at,
        }

    def reset(self) -> None:
        """Wake everything and clear hysteresis state."""
        self._asleep[:] = False
        self._shed_at[:] = -np.inf
