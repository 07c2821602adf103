"""PAD's three-level hierarchical security policy (paper §4.1, Fig. 9).

Power-management strategies are classified into emergency levels:

* **Level 1 — Normal.** Shave visible peaks with the vDEB pool.
* **Level 2 — Minor Incident.** The uDEB is the active defense against
  hidden spikes; the manager watches its health and collects load
  information for inspection.
* **Level 3 — Emergency.** Both backups exhausted: shed or migrate load.

Three inputs drive the machine: whether the vDEB pool holds energy,
whether the uDEB holds energy, and whether a visible peak (VP) is
currently identified. The initial-state table and the transition arrows
follow paper Fig. 9 exactly, including the deliberately unspecified
``[vDEB>0, uDEB==0]`` entry, which the operator resolves by choosing a
security posture (lenient -> Level 1, strict -> Level 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigError


class SecurityLevel(enum.IntEnum):
    """PAD emergency levels. Higher is worse."""

    NORMAL = 1
    MINOR_INCIDENT = 2
    EMERGENCY = 3


@dataclass(frozen=True)
class PolicyInputs:
    """The three observed inputs of the Fig. 9 state machine.

    Attributes:
        vdeb_available: True when the virtual DEB pool holds usable energy.
        udeb_available: True when the micro DEB holds usable energy.
        visible_peak: True when a visible power peak is identified (VP>0).
    """

    vdeb_available: bool
    udeb_available: bool
    visible_peak: bool


#: Initial-state table of paper Fig. 9, keyed by
#: (vDEB>0, uDEB>0, VP>0). The ``None`` entries are the posture-dependent
#: rows resolved by :class:`HierarchicalPolicy`'s ``strict`` flag.
INITIAL_STATE_TABLE: "dict[tuple[bool, bool, bool], SecurityLevel | None]" = {
    (False, False, False): SecurityLevel.EMERGENCY,
    (False, False, True): SecurityLevel.EMERGENCY,
    (False, True, False): SecurityLevel.MINOR_INCIDENT,
    (False, True, True): SecurityLevel.EMERGENCY,
    (True, False, False): None,
    (True, False, True): None,
    (True, True, False): SecurityLevel.NORMAL,
    (True, True, True): SecurityLevel.NORMAL,
}


class HierarchicalPolicy:
    """The Fig. 9 state machine.

    Args:
        strict: Posture for the unspecified ``[vDEB>0, uDEB==0]`` rows —
            ``True`` starts them at Level 2 (treat a drained uDEB as an
            incident), ``False`` at Level 1. The paper leaves this to "the
            level of security requirement of the organization".
    """

    def __init__(self, strict: bool = True) -> None:
        self._strict = strict
        self._level: "SecurityLevel | None" = None
        self._transitions: list[tuple[SecurityLevel, SecurityLevel]] = []

    @property
    def strict(self) -> bool:
        """The configured security posture."""
        return self._strict

    @property
    def level(self) -> SecurityLevel:
        """Current emergency level.

        Raises:
            ConfigError: if the policy has never been updated.
        """
        if self._level is None:
            raise ConfigError("policy has not been initialised; call update()")
        return self._level

    @property
    def transitions(self) -> "list[tuple[SecurityLevel, SecurityLevel]]":
        """History of (from, to) level changes."""
        return list(self._transitions)

    def peek(self) -> "SecurityLevel | None":
        """Current level, or ``None`` before the first :meth:`update`.

        The non-raising companion of :attr:`level`, for observers (event
        publishers, dashboards) that must not disturb the machine.
        """
        return self._level

    def initial_state(self, inputs: PolicyInputs) -> SecurityLevel:
        """Initial level for ``inputs`` per the Fig. 9 table."""
        key = (inputs.vdeb_available, inputs.udeb_available, inputs.visible_peak)
        level = INITIAL_STATE_TABLE[key]
        if level is None:
            level = (
                SecurityLevel.MINOR_INCIDENT
                if self._strict
                else SecurityLevel.NORMAL
            )
        return level

    def update(self, inputs: PolicyInputs) -> SecurityLevel:
        """Advance the machine one observation and return the new level.

        The first call seeds the state from the initial-state table; later
        calls follow the transition arrows:

        * L1 -> L2 when the uDEB empties;
        * L2 -> L3 when the vDEB pool empties;
        * L3 -> L2 when the vDEB pool is recharged;
        * L2 -> L1 when the uDEB is recharged.
        """
        if self._level is None:
            self._level = self.initial_state(inputs)
            return self._level
        before = self._level
        if self._level is SecurityLevel.NORMAL:
            if not inputs.udeb_available:
                self._level = SecurityLevel.MINOR_INCIDENT
            if not inputs.vdeb_available:
                # Both empty at once: fall straight through to emergency.
                self._level = SecurityLevel.EMERGENCY
        elif self._level is SecurityLevel.MINOR_INCIDENT:
            if not inputs.vdeb_available:
                self._level = SecurityLevel.EMERGENCY
            elif inputs.udeb_available:
                self._level = SecurityLevel.NORMAL
        else:  # EMERGENCY
            if inputs.vdeb_available:
                self._level = SecurityLevel.MINOR_INCIDENT
                if inputs.udeb_available:
                    self._level = SecurityLevel.NORMAL
        if self._level is not before:
            self._transitions.append((before, self._level))
        return self._level

    def ff_state(self) -> dict:
        """Evolving state for the cohort freeze fingerprint.

        The transition *history* is excluded: it only grows when the
        level changes, and a level change publishes an event, which
        refuses the jump anyway.
        """
        return {"level": None if self._level is None else int(self._level)}

    def reset(self) -> None:
        """Forget all state (next update re-seeds from the initial table)."""
        self._level = None
        self._transitions.clear()
