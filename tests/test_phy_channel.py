"""Unit tests for the slotted CDMA channel — including the Fig. 1 scenario."""

import numpy as np
import pytest

from repro.phy import BROADCAST_CODE, ConnectivityGraph, Frame, SlottedChannel
from repro.sim import TraceRecorder


def line_graph(coords, radio_range):
    pos = np.array([[x, 0.0] for x in coords])
    return ConnectivityGraph(pos, radio_range)


class TestDelivery:
    def test_unicast_delivery(self):
        g = line_graph([0, 1], 2.0)
        ch = SlottedChannel(g)
        ch.register_listener(1, {7})
        ch.transmit(Frame(src=0, code=7, payload="hello"))
        out = ch.resolve_slot(0.0)
        assert [f.payload for f in out[1]] == ["hello"]
        assert ch.stats.frames_delivered == 1

    def test_out_of_range_not_delivered(self):
        g = line_graph([0, 100], 2.0)
        ch = SlottedChannel(g)
        ch.register_listener(1, {7})
        ch.transmit(Frame(src=0, code=7, payload="x"))
        assert ch.resolve_slot(0.0) == {}

    def test_wrong_code_not_delivered(self):
        g = line_graph([0, 1], 2.0)
        ch = SlottedChannel(g)
        ch.register_listener(1, {7})
        ch.transmit(Frame(src=0, code=8, payload="x"))
        assert ch.resolve_slot(0.0) == {}

    def test_sender_does_not_hear_itself(self):
        g = line_graph([0, 1], 2.0)
        ch = SlottedChannel(g)
        ch.register_listener(0, {5})
        ch.register_listener(1, {5})
        ch.transmit(Frame(src=0, code=5, payload="x"))
        out = ch.resolve_slot(0.0)
        assert 0 not in out and 1 in out

    def test_broadcast_reaches_all_in_range(self):
        g = line_graph([0, 1, 2, 50], 2.5)
        ch = SlottedChannel(g)
        for s in range(4):
            ch.register_listener(s, {BROADCAST_CODE})
        ch.transmit(ch.broadcast_frame(src=1, payload="announce"))
        out = ch.resolve_slot(0.0)
        assert set(out) == {0, 2}  # station 3 out of range, 1 is sender

    def test_slot_clears_after_resolve(self):
        g = line_graph([0, 1], 2.0)
        ch = SlottedChannel(g)
        ch.register_listener(1, {0})
        ch.transmit(Frame(src=0, code=0, payload="a"))
        ch.resolve_slot(0.0)
        assert ch.pending_count() == 0
        assert ch.resolve_slot(1.0) == {}

    def test_non_frame_rejected(self):
        ch = SlottedChannel(line_graph([0, 1], 2.0))
        with pytest.raises(TypeError):
            ch.transmit("not a frame")

    def test_listener_registration_replaces(self):
        g = line_graph([0, 1], 2.0)
        ch = SlottedChannel(g)
        ch.register_listener(1, {1, 2})
        ch.register_listener(1, {3})
        assert ch.listen_codes(1) == {3}
        ch.add_listen_code(1, 4)
        assert ch.listen_codes(1) == {3, 4}
        ch.remove_listener(1)
        assert ch.listen_codes(1) == set()

    def test_unknown_station_in_graph_skipped(self):
        g = line_graph([0, 1], 2.0)
        ch = SlottedChannel(g)
        ch.register_listener(99, {0})   # listener not in graph
        ch.transmit(Frame(src=0, code=0, payload="x"))
        assert ch.resolve_slot(0.0) == {}


class TestFig1Scenario:
    """Fig. 1: A->B and C->D transmit simultaneously.

    With receiver-oriented CDMA (distinct codes) both deliveries succeed;
    with a shared code, B (in range of both A and C) receives nothing.
    """

    def setup_method(self):
        # A=0, B=1, C=2, D=3 in a line, range covers 2 units
        self.g = line_graph([0, 1, 2, 3], 1.5)

    def test_with_cdma_no_collision(self):
        ch = SlottedChannel(self.g)
        ch.register_listener(1, {101})  # B's code
        ch.register_listener(3, {103})  # D's code
        ch.transmit(Frame(src=0, code=101, payload="A->B"))
        ch.transmit(Frame(src=2, code=103, payload="C->D"))
        out = ch.resolve_slot(0.0)
        assert [f.payload for f in out[1]] == ["A->B"]
        assert [f.payload for f in out[3]] == ["C->D"]
        assert ch.stats.collisions == 0

    def test_without_cdma_collision_at_b(self):
        ch = SlottedChannel(self.g)
        shared = 55
        ch.register_listener(1, {shared})
        ch.register_listener(3, {shared})
        ch.transmit(Frame(src=0, code=shared, payload="A->B"))
        ch.transmit(Frame(src=2, code=shared, payload="C->D"))
        out = ch.resolve_slot(0.0)
        # B hears both A and C on the same code -> collision, receives nothing
        assert 1 not in out
        # D hears only C (A out of range) -> still delivered
        assert [f.payload for f in out[3]] == ["C->D"]
        assert ch.stats.collisions == 1
        rec = ch.collisions[0]
        assert rec.receiver == 1 and rec.senders == (0, 2)

    def test_collision_traced(self):
        """The owning network publishes the channel's collisions on its
        bus, where its trace records them."""
        from repro.core import WRTRingConfig, WRTRingNetwork
        from repro.sim import Engine

        tr = TraceRecorder()
        ch = SlottedChannel(self.g)
        cfg = WRTRingConfig.homogeneous(range(4), l=1, k=1,
                                        rap_enabled=False)
        net = WRTRingNetwork(Engine(), [0, 1, 2, 3], cfg, graph=self.g,
                             channel=ch, trace=tr)
        code = net.codes.code_of(1)
        ch.transmit(Frame(src=0, code=code, payload="p"))
        ch.transmit(Frame(src=2, code=code, payload="q"))
        ch.resolve_slot(4.0)
        assert tr.count("phy.collision") == 1
        assert tr.last("phy.collision")["receiver"] == 1
        assert tr.last("phy.collision").fields == {
            "receiver": 1, "code": code, "senders": (0, 2)}


class TestDynamicGraph:
    def test_graph_provider_called_per_slot(self):
        graphs = [line_graph([0, 1], 2.0), line_graph([0, 100], 2.0)]
        calls = []

        def provider():
            g = graphs[min(len(calls), 1)]
            calls.append(1)
            return g

        ch = SlottedChannel(provider)
        ch.register_listener(1, {0})
        ch.transmit(Frame(src=0, code=0, payload="near"))
        assert 1 in ch.resolve_slot(0.0)
        ch.transmit(Frame(src=0, code=0, payload="far"))
        assert ch.resolve_slot(1.0) == {}  # stations moved apart

    def test_three_senders_same_code_is_one_collision_record(self):
        g = line_graph([0, 1, 2, 3], 10.0)
        ch = SlottedChannel(g)
        ch.register_listener(0, {7})
        for s in (1, 2, 3):
            ch.transmit(Frame(src=s, code=7, payload=s))
        out = ch.resolve_slot(0.0)
        assert 0 not in out
        assert ch.stats.collisions == 1
        assert ch.collisions[0].senders == (1, 2, 3)
