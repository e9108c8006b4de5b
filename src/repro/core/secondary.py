"""Secondary ring formation (the Sec. 2.4.1 aside, built out).

"If the requesting station can reach only one station, it cannot join the
network (in this case it may form another ring)."  The paper leaves the
case unanalyzed; this module implements the natural completion: stations
that cannot enter the primary ring discover each other on the broadcast
channel and, when at least two of them are mutually ring-connected, form
their own WRT-Ring — co-located with the primary and sharing the same
radio space.

Because both rings use receiver-oriented CDMA, their dataplanes are
interference-free *provided their code assignments don't clash where a
receiver could hear both rings*.  :func:`form_secondary_ring` therefore
assigns the secondary ring codes disjoint from every code audible in the
combined graph, and experiment E18 validates the coexistence through the
shared channel model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import WRTRingConfig
from repro.core.quotas import QuotaConfig
from repro.core.ring import WRTRingNetwork
from repro.events import EventBus
from repro.phy.cdma import CodeSpace
from repro.phy.channel import SlottedChannel
from repro.phy.topology import ConnectivityGraph, TopologyError, construct_ring
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder

__all__ = ["form_secondary_ring", "SecondaryRingError", "SharedChannelPump"]


class SharedChannelPump:
    """Resolves a channel shared by several co-located networks once per
    slot, *after* all of them have transmitted.

    Each network normally resolves the channel at the end of its own tick;
    with two networks on one channel that would resolve ring A's frames
    before ring B even transmits, hiding any cross-ring interference.  The
    pump sets :attr:`~repro.phy.channel.SlottedChannel.external_pump`,
    making the per-network flushes no-ops, and performs one global
    resolution at a priority after every network tick, dispatching
    deliveries to whichever network knows the receiver.
    """

    #: must sort after the networks' tick priority (5)
    PRIORITY = 9

    def __init__(self, engine: Engine, channel: SlottedChannel, networks):
        self.engine = engine
        self.channel = channel
        self.networks = list(networks)
        channel.external_pump = True
        self._handle = None

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("pump already started")
        self._handle = self.engine.schedule(0.0, self._pump,
                                            priority=self.PRIORITY)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _pump(self) -> None:
        t = self.engine.now
        deliveries = self.channel.force_resolve_slot(t)
        for receiver, frames in deliveries.items():
            for frame in frames:
                if frame.kind == "data":
                    continue  # validation frames carry no protocol payload
                for net in self.networks:
                    handler = net._frame_handlers.get(receiver)
                    if handler is not None:
                        handler(frame, t)
                        break
        self._handle = self.engine.schedule(1.0, self._pump,
                                            priority=self.PRIORITY)


class SecondaryRingError(RuntimeError):
    """The candidate stations cannot form a ring of their own."""


def form_secondary_ring(engine: Engine,
                        candidates: Sequence[int],
                        graph: ConnectivityGraph,
                        quotas: Dict[int, QuotaConfig],
                        channel: Optional[SlottedChannel] = None,
                        primary_codes: Optional[CodeSpace] = None,
                        config: Optional[WRTRingConfig] = None,
                        trace: Optional[TraceRecorder] = None,
                        events: Optional[EventBus] = None) -> WRTRingNetwork:
    """Build a second WRT-Ring over ``candidates``.

    Parameters mirror :class:`~repro.core.ring.WRTRingNetwork`, plus
    ``primary_codes``: the code space of the co-located primary ring; the
    secondary ring's codes are chosen disjoint from it, so the two rings'
    concurrent transmissions can never collide at any receiver — CDMA
    isolation, which E18 verifies through a shared channel.  By default the
    secondary ring owns its own event bus (a given ``trace`` is attached to
    it, so one trace shared with the primary ring records both rings); pass
    ``events`` to publish on a caller-managed bus instead.

    Raises :class:`SecondaryRingError` when fewer than two candidates are
    given or no feasible ring exists among them.
    """
    candidates = list(candidates)
    if len(candidates) < 2:
        raise SecondaryRingError(
            f"need at least 2 stations to form a ring, got {len(candidates)}")
    missing = [sid for sid in candidates if not graph.has_node(sid)]
    if missing:
        raise SecondaryRingError(f"stations not in the graph: {missing}")
    missing_q = [sid for sid in candidates if sid not in quotas]
    if missing_q:
        raise SecondaryRingError(f"no quotas for stations {missing_q}")

    try:
        sub = graph.subgraph(candidates)
        order = construct_ring(sub)
    except TopologyError as exc:
        raise SecondaryRingError(
            f"no feasible secondary ring among {candidates}: {exc}") from exc

    # codes disjoint from the primary ring's
    taken = set()
    if primary_codes is not None:
        taken = {primary_codes.code_of(s) for s in primary_codes.stations()}
    codes = CodeSpace()
    next_code = 0
    for sid in order:
        while next_code in taken:
            next_code += 1
        codes.assign(sid, next_code)
        next_code += 1

    if config is None:
        config = WRTRingConfig(
            quotas={sid: quotas[sid] for sid in order},
            rap_enabled=False)
    else:
        for sid in order:
            config.quotas.setdefault(sid, quotas[sid])

    net = WRTRingNetwork(engine, order, config, graph=graph,
                         channel=channel, codes=codes, trace=trace,
                         events=events)
    return net


def partition_unreachable_requesters(graph: ConnectivityGraph,
                                     ring_members: Sequence[int],
                                     outsiders: Sequence[int]) -> List[int]:
    """The stations that can never join the primary ring: those reaching
    fewer than two *consecutive* ring members over a single hop.

    (A helper for scenario construction; the live protocol discovers this
    itself by listening to NEXT_FREE messages.)
    """
    members = list(ring_members)
    n = len(members)
    excluded = []
    for sid in outsiders:
        can_join = False
        for i in range(n):
            a, b = members[i], members[(i + 1) % n]
            if graph.in_range(sid, a) and graph.in_range(sid, b):
                can_join = True
                break
        if not can_join:
            excluded.append(sid)
    return excluded
