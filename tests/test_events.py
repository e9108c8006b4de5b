"""The event spine: bus mechanics, declared trace records, schema docs.

The compatibility contract under test: the typed event layer plus each
event type's declared trace record must reproduce the pre-spine trace
stream *byte for byte*, so the checked-in fuzz corpus bundles (whose
``trace_hash`` fields were recorded against the old inline
``trace.record`` calls) replay with identical hashes.
"""

import json
from pathlib import Path

import pytest

from repro.core import Packet, ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.events import (EVENT_TYPES, EventBus, NULL_EMITTER,
                          render_markdown, schema)
from repro.events import types as ev
from repro.events.types import ProtocolEvent
from repro.fuzz import load_bundle, verify_bundle
from repro.sim import Engine
from repro.sim.trace import TraceRecorder

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))
EVENTS_DOC = Path(__file__).parent.parent / "docs" / "EVENTS.md"


def ring_net(n=6, trace=None, events=None, **cfg_kwargs):
    engine = Engine()
    cfg_kwargs.setdefault("rap_enabled", False)
    cfg = WRTRingConfig.homogeneous(range(n), l=2, k=2, **cfg_kwargs)
    return engine, WRTRingNetwork(engine, list(range(n)), cfg,
                                  trace=trace, events=events)


class TestEventBus:
    def test_no_subscriber_emitter_is_null_and_falsy(self):
        bus = EventBus()
        emit = bus.emitter(ev.RingTick)
        assert emit is NULL_EMITTER
        assert not emit
        assert emit(1.0) is None   # calling the null emitter is a no-op

    def test_single_subscriber_receives_typed_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(ev.SatRelease, seen.append)
        emit = bus.emitter(ev.SatRelease)
        assert emit    # truthy: the emit site should construct the event
        emit(5.0, 1, 2)
        assert len(seen) == 1
        e = seen[0]
        assert isinstance(e, ev.SatRelease)
        assert (e.t, e.station, e.to) == (5.0, 1, 2)
        assert e.fields() == {"t": 5.0, "station": 1, "to": 2}

    def test_fanout_preserves_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(ev.RingTick, lambda e: order.append("a"))
        bus.subscribe(ev.RingTick, lambda e: order.append("b"))
        bus.emitter(ev.RingTick)(0.0)
        assert order == ["a", "b"]

    def test_unsubscribe_restores_null_emitter(self):
        bus = EventBus()
        unsub = bus.subscribe(ev.RingTick, lambda e: None)
        assert bus.subscriber_count(ev.RingTick) == 1
        unsub()
        assert bus.subscriber_count(ev.RingTick) == 0
        assert bus.emitter(ev.RingTick) is NULL_EMITTER

    def test_binder_called_immediately_and_on_every_change(self):
        bus = EventBus()
        calls = []
        bus.add_binder(lambda: calls.append(len(calls)))
        assert len(calls) == 1                      # immediate
        unsub = bus.subscribe(ev.RingTick, lambda e: None)
        assert len(calls) == 2                      # on subscribe
        unsub()
        assert len(calls) == 3                      # on unsubscribe

    def test_subscribe_rejects_non_event_types(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(dict, lambda e: None)


class TestTraceWriters:
    def _pkt(self, src=0, dst=1):
        return Packet(src=src, dst=dst, service=ServiceClass.PREMIUM,
                      created=0.0)

    def attached(self):
        trace = TraceRecorder()
        bus = EventBus()
        trace.attach(bus)
        return trace, bus

    def test_direct_event_renders_legacy_record(self):
        trace, bus = self.attached()
        bus.emitter(ev.SatRelease)(7.0, 3, 4)
        assert len(trace) == 1
        rec = trace.events[0]
        assert (rec.time, rec.category) == (7.0, "sat.release")
        assert rec.fields == {"station": 3, "to": 4}

    def test_packet_lost_traced_only_for_link_reason(self):
        trace, bus = self.attached()
        emit = bus.emitter(ev.PacketLost)
        emit(1.0, self._pkt(), "link", 0, 1)
        emit(2.0, self._pkt(), "removed", 2, None)
        emit(3.0, self._pkt(), "rebuild", 3, None)
        assert [e.category for e in trace.events] == ["ring.link_loss"]
        assert trace.events[0].fields == {"src": 0, "dst": 1}

    def test_packet_orphaned_traced_only_for_ttl_reason(self):
        trace, bus = self.attached()
        pkt = self._pkt(src=2, dst=5)
        pkt.hops = 9
        emit = bus.emitter(ev.PacketOrphaned)
        emit(1.0, pkt, "ttl")
        emit(2.0, self._pkt(), "full_circle")
        assert [e.category for e in trace.events] == ["ring.orphan_ttl"]
        assert trace.events[0].fields == {"src": 2, "dst": 5, "hops": 9}

    def test_rap_close_duplicate_field_elided_when_none(self):
        trace, bus = self.attached()
        emit = bus.emitter(ev.RapClose)
        emit(1.0, 0, 7, None)
        emit(2.0, 0, None, 7)
        assert trace.events[0].fields == {"ingress": 0, "joined": 7}
        assert trace.events[1].fields == {"ingress": 0, "joined": None,
                                          "duplicate": 7}

    def test_occupancy_subscription_follows_trace_enablement(self):
        trace, bus = self.attached()  # slot.occupancy is opt-in: disabled
        assert bus.emitter(ev.SlotOccupancy) is NULL_EMITTER
        trace.enable("slot.occupancy")
        emit = bus.emitter(ev.SlotOccupancy)
        assert emit
        emit(4.0, 3, 8)
        assert trace.count("slot.occupancy") == 1
        trace.disable("slot.occupancy")
        assert bus.emitter(ev.SlotOccupancy) is NULL_EMITTER

    def test_gateway_records_render_packet_coordinates(self):
        trace, bus = self.attached()
        pkt = self._pkt(src=3, dst=8)
        bus.emitter(ev.GatewayForward)(1.0, 5, "ring_to_lan", pkt)
        bus.emitter(ev.GatewayDrop)(2.0, 5, "lan_to_ring", "overflow", pkt)
        assert [(e.category, e.fields) for e in trace.events] == [
            ("gw.forward", {"gateway": 5, "direction": "ring_to_lan",
                            "src": 3, "dst": 8, "service": "RT"}),
            ("gw.drop", {"gateway": 5, "direction": "lan_to_ring",
                         "reason": "overflow", "src": 3, "dst": 8,
                         "service": "RT"})]

    def test_attach_twice_records_once(self):
        trace, bus = self.attached()
        trace.attach(bus)
        bus.emitter(ev.SatRelease)(7.0, 3, 4)
        assert len(trace) == 1

    def test_switches_resync_every_attached_bus(self):
        trace, bus_a = self.attached()
        bus_b = EventBus()
        trace.attach(bus_b)
        trace.disable("sat.release")
        for bus in (bus_a, bus_b):
            assert bus.emitter(ev.SatRelease) is NULL_EMITTER
        trace.enable("sat.release")
        bus_a.emitter(ev.SatRelease)(1.0, 0, 1)
        bus_b.emitter(ev.SatRelease)(2.0, 1, 2)
        assert trace.times("sat.release") == [1.0, 2.0]

    def test_enable_only_nothing_subscribes_no_writer(self):
        """The fabric's ``trace=False`` path: no traced event type keeps a
        trace subscriber, so no traced event is even built for it."""
        _, untraced = ring_net()
        _, net = ring_net(trace=TraceRecorder())
        net.trace.enable_only(())
        for etype in EVENT_TYPES:
            assert (net.events.subscriber_count(etype)
                    == untraced.events.subscriber_count(etype)), etype

    def test_untraced_events_write_nothing(self):
        trace, bus = self.attached()
        bus.emitter(ev.RingTick)(1.0)
        bus.emitter(ev.SlotTransmit)(1.0, 0, self._pkt())
        bus.emitter(ev.SlotDeliver)(1.0, 1, self._pkt())
        bus.emitter(ev.RecoveryEpisode)(1.0, "silent", "recovered", 2, 10.0)
        assert len(trace) == 0


class TestNetworkWiring:
    def test_network_owns_bus_and_adapter_by_default(self):
        _, untraced = ring_net()
        _, net = ring_net(trace=TraceRecorder())
        assert isinstance(net.events, EventBus)
        # the trace's writer rides on the network's own bus
        assert (net.events.subscriber_count(ev.SatRelease)
                == untraced.events.subscriber_count(ev.SatRelease) + 1)

    def test_null_trace_skips_adapter(self):
        _, net = ring_net()      # no trace: no writer subscribes
        assert net.trace is None
        assert net.events.emitter(ev.SatRelease) is NULL_EMITTER

    def test_external_bus_is_used_and_not_adapted(self):
        bus = EventBus()
        delivered = []
        bus.subscribe(ev.SlotDeliver, delivered.append)
        trace = TraceRecorder()
        engine, net = ring_net(trace=trace, events=bus)
        assert net.events is bus
        # caller-owned bus: the caller decides what subscribes, the
        # network must not silently attach its trace
        assert bus.emitter(ev.SatRelease) is NULL_EMITTER
        net.enqueue(Packet(src=0, dst=1, service=ServiceClass.PREMIUM,
                           created=0.0))
        net.start()
        engine.run(until=200)
        assert len(delivered) >= 1
        assert delivered[0].station == 1
        assert len(trace) == 0

    def test_metrics_fed_solely_by_bus(self):
        engine, net = ring_net()
        for sid in range(3):
            net.enqueue(Packet(src=sid, dst=(sid + 1) % 6,
                               service=ServiceClass.PREMIUM, created=0.0))
        net.start()
        engine.run(until=300)
        assert net.metrics.total_delivered == 3
        assert net.metrics.transmitted[ServiceClass.PREMIUM] == 3
        assert net.metrics.access_delay[ServiceClass.PREMIUM].count == 3


class TestCorpusParity:
    """Every checked-in repro bundle — recorded before the event spine
    existed — must replay through the declared trace records to a
    byte-identical trace hash."""

    def test_corpus_present(self):
        assert len(CORPUS) >= 4

    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_bundle_trace_hash_byte_identical(self, path):
        expected = load_bundle(path)["result"]["trace_hash"]
        ok, result, mismatches = verify_bundle(path)
        assert ok, mismatches
        assert mismatches == []
        assert result.trace_hash == expected


class TestSchemaAndDocs:
    def test_categories_are_unique_and_dotted(self):
        cats = [cls.category for cls in EVENT_TYPES]
        assert len(cats) == len(set(cats))
        assert all("." in c for c in cats)

    def test_every_event_is_timestamped_first(self):
        for cls in EVENT_TYPES:
            assert cls.payload[0] == "t", cls.__name__

    def test_events_doc_contains_generated_schema(self):
        """docs/EVENTS.md embeds ``render_markdown()`` verbatim — regenerate
        the doc when event types change (see the doc's header)."""
        assert render_markdown() in EVENTS_DOC.read_text()

    def test_schema_trace_column_matches_adapter(self):
        """The schema's trace column is read off each type's declaration."""
        for rec, cls in zip(schema(), EVENT_TYPES):
            if cls.trace is None:
                assert rec["trace"] is None
            else:
                assert rec["trace"].split(" ")[0] == cls.trace.category

    @pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
    def test_replayed_trace_categories_covered_by_schema(self, path):
        """Every category a real run records is declared by an event
        type's trace record: nothing bypasses the bus."""
        traced = {cls.trace.category for cls in EVENT_TYPES
                  if cls.trace is not None}
        _, result, _ = verify_bundle(path)
        emitted = {e.category for e in result.built.trace.events}
        assert emitted - traced == set()

    def test_event_classes_are_slotted(self):
        for cls in EVENT_TYPES:
            e = cls(*range(len(cls.payload)))
            with pytest.raises(AttributeError):
                e.not_a_field = 1
            assert issubclass(cls, ProtocolEvent)
