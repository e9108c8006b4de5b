"""Slot-synchronous CDMA channel with collision resolution.

The channel implements the paper's exact interference model:

* a receiver hears a frame iff it is tuned to the frame's code **and** within
  radio range of the sender;
* if two or more in-range frames carry the *same* code in the same slot, the
  receiver gets none of them — a collision (the Fig. 1 situation without
  CDMA);
* frames with distinct codes never interfere (the Fig. 1 situation with
  CDMA).

Protocol layers call :meth:`SlottedChannel.transmit` any number of times
within a slot and then :meth:`SlottedChannel.resolve_slot` once at the slot
boundary; the channel hands back per-receiver deliveries and logs
:class:`CollisionRecord` entries for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.phy.cdma import BROADCAST_CODE
from repro.phy.topology import ConnectivityGraph

__all__ = ["Frame", "CollisionRecord", "SlottedChannel"]


@dataclass(frozen=True)
class Frame:
    """One slot-sized transmission."""

    src: int
    code: int
    payload: Any
    kind: str = "data"   # "data" | "control" | "broadcast"


@dataclass(frozen=True)
class CollisionRecord:
    """A same-code overlap observed at one receiver in one slot."""

    time: float
    receiver: int
    code: int
    senders: tuple


@dataclass
class ChannelStats:
    frames_sent: int = 0
    frames_delivered: int = 0
    collisions: int = 0
    frames_dropped: int = 0
    deliveries_by_kind: Dict[str, int] = field(default_factory=dict)
    drops_by_kind: Dict[str, int] = field(default_factory=dict)


class SlottedChannel:
    """The shared medium.

    ``graph`` may be a static :class:`ConnectivityGraph` or a zero-argument
    callable returning the current graph (for mobile scenarios where
    connectivity is recomputed as stations move).
    """

    def __init__(self, graph):
        self._graph_provider: Callable[[], ConnectivityGraph]
        if callable(graph):
            self._graph_provider = graph
        else:
            self._graph_provider = lambda: graph
        self._listen_codes: Dict[int, Set[int]] = {}
        self._pending: List[Frame] = []
        self.collisions: List[CollisionRecord] = []
        self.stats = ChannelStats()
        #: optional :class:`~repro.phy.impairments.ChannelImpairments` loss
        #: oracle; when set, audible frames are filtered through it *before*
        #: collision resolution (a faded frame cannot collide)
        self.impairments = None
        #: ``drop_hook(time, frame, receiver, reason)`` — called once per
        #: impairment drop so the owning network can emit a bus event
        self.drop_hook: Optional[Callable[[float, Frame, int, str], None]] = None
        #: ``collision_hook(time, receiver, code, senders)`` — called once
        #: per collision record, likewise
        self.collision_hook: Optional[Callable[..., None]] = None
        #: when True, per-network ``resolve_slot`` calls are no-ops and an
        #: external pump (e.g. :class:`repro.core.secondary.SharedChannelPump`)
        #: resolves once per slot after *all* co-located networks have
        #: transmitted — required for cross-network interference to be seen.
        self.external_pump = False

    # ------------------------------------------------------------------
    # listener management
    # ------------------------------------------------------------------
    def register_listener(self, station: int, codes: Set[int]) -> None:
        """Declare the set of codes ``station`` despreads (replacing any prior set)."""
        self._listen_codes[station] = set(codes)

    def add_listen_code(self, station: int, code: int) -> None:
        self._listen_codes.setdefault(station, set()).add(code)

    def remove_listener(self, station: int) -> None:
        self._listen_codes.pop(station, None)

    def listen_codes(self, station: int) -> Set[int]:
        return set(self._listen_codes.get(station, set()))

    # ------------------------------------------------------------------
    # slot operation
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> None:
        """Queue ``frame`` for the current slot."""
        if not isinstance(frame, Frame):
            raise TypeError(f"expected Frame, got {frame!r}")
        self._pending.append(frame)
        self.stats.frames_sent += 1

    def resolve_slot(self, time: float) -> Dict[int, List[Frame]]:
        """Resolve all transmissions of the closing slot.

        Returns ``{receiver_station: [delivered frames]}``.  Collisions are
        appended to :attr:`collisions` and reported to
        :attr:`collision_hook`.  A no-op while :attr:`external_pump` is set —
        the pump calls :meth:`force_resolve_slot` once per slot instead.
        """
        if self.external_pump:
            return {}
        return self.force_resolve_slot(time)

    def force_resolve_slot(self, time: float) -> Dict[int, List[Frame]]:
        """Resolve regardless of :attr:`external_pump` (pump entry point)."""
        pending, self._pending = self._pending, []
        if not pending:
            return {}
        graph = self._graph_provider()

        # Group pending frames by code once.
        by_code: Dict[int, List[Frame]] = {}
        for fr in pending:
            by_code.setdefault(fr.code, []).append(fr)

        deliveries: Dict[int, List[Frame]] = {}
        imp = self.impairments
        for station, codes in self._listen_codes.items():
            if not graph.has_node(station):
                continue
            for code in codes:
                frames = by_code.get(code)
                if not frames:
                    continue
                audible = [fr for fr in frames
                           if fr.src != station
                           and graph.has_node(fr.src)
                           and graph.in_range(station, fr.src)]
                if imp is not None and audible:
                    # "data" frames are validation mirrors of ring hops the
                    # network already impairs internally — filtering them
                    # again would double-count the loss process
                    audible = [fr for fr in audible
                               if fr.kind == "data"
                               or not self._impaired(imp, time, fr, station)]
                if len(audible) == 1:
                    fr = audible[0]
                    deliveries.setdefault(station, []).append(fr)
                    self.stats.frames_delivered += 1
                    kinds = self.stats.deliveries_by_kind
                    kinds[fr.kind] = kinds.get(fr.kind, 0) + 1
                elif len(audible) >= 2:
                    rec = CollisionRecord(
                        time, station, code,
                        tuple(sorted(fr.src for fr in audible)))
                    self.collisions.append(rec)
                    self.stats.collisions += 1
                    if self.collision_hook is not None:
                        self.collision_hook(time, station, code, rec.senders)
        return deliveries

    def _impaired(self, imp, time: float, fr: Frame, receiver: int) -> bool:
        reason = imp.loss(time, fr.src, receiver, code=fr.code, kind=fr.kind)
        if reason is None:
            return False
        self.stats.frames_dropped += 1
        kinds = self.stats.drops_by_kind
        kinds[fr.kind] = kinds.get(fr.kind, 0) + 1
        if self.drop_hook is not None:
            self.drop_hook(time, fr, receiver, reason)
        return True

    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    def broadcast_frame(self, src: int, payload: Any, kind: str = "broadcast") -> Frame:
        """Convenience: build (not send) a broadcast-code frame."""
        return Frame(src=src, code=BROADCAST_CODE, payload=payload, kind=kind)
