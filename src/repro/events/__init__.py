"""The event spine: typed protocol events + subscriber bus.

One dispatch layer between the protocol implementation and everything
that watches it.  Emit sites (:mod:`repro.core`, :mod:`repro.baselines`,
:mod:`repro.sim.engine`) publish typed records exactly once per protocol
fact; trace recording, obs metrics/timelines, fuzz oracles/invariant
checkers and analysis accounting are all subscribers.  See
``docs/EVENTS.md`` for the full schema (generated from
:mod:`repro.events.types`).
"""

from repro.events.bus import NULL_EMITTER, EventBus
from repro.events.types import (
    EVENT_TYPES,
    ProtocolEvent,
    render_markdown,
    schema,
)

__all__ = [
    "EventBus",
    "NULL_EMITTER",
    "ProtocolEvent",
    "EVENT_TYPES",
    "schema",
    "render_markdown",
]
