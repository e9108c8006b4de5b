"""Tests for the runtime invariant checker — including long fuzz/soak runs
that hammer the protocol with every dynamic at once."""

import random

import pytest
from hypothesis import given, settings, strategies as hst

from repro.core import (Packet, QuotaConfig, ServiceClass, WRTRingConfig,
                        WRTRingNetwork)
from repro.core.invariants import InvariantViolation, RingInvariantChecker
from repro.sim import Engine


def checked_net(n=6, l=2, k=2, strict=True):
    engine = Engine()
    cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, rap_enabled=False)
    net = WRTRingNetwork(engine, list(range(n)), cfg)
    checker = RingInvariantChecker(net, strict=strict).attach(net.events)
    return engine, net, checker


class TestCleanRuns:
    def test_idle_network_clean(self):
        engine, net, checker = checked_net()
        net.start()
        engine.run(until=500)
        assert checker.clean
        assert checker.checks_run >= 500

    def test_saturated_network_clean(self):
        engine, net, checker = checked_net()
        rng = random.Random(0)

        def top(t):
            for sid in net.members:
                st = net.stations[sid]
                while len(st.rt_queue) < 10:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
                while len(st.be_queue) < 10:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.BEST_EFFORT,
                                      created=t), t)
        net.add_tick_hook(top)
        engine.run(until=2000)
        assert checker.clean

    def test_recovery_keeps_invariants(self):
        engine, net, checker = checked_net()
        net.start()
        engine.run(until=50)
        net.kill_station(3)
        engine.run(until=500)
        assert checker.clean
        assert 3 not in net.members

    def test_graceful_leave_keeps_invariants(self):
        engine, net, checker = checked_net()
        net.start()
        engine.run(until=50)
        net.leave_gracefully(2)
        engine.run(until=500)
        assert checker.clean

    def test_sat_loss_keeps_invariants(self):
        engine, net, checker = checked_net()
        net.start()
        engine.run(until=37)
        net.drop_sat()
        engine.run(until=800)
        assert checker.clean


class TestDetection:
    def test_detects_forged_counter(self):
        engine, net, checker = checked_net(strict=True)
        net.start()
        engine.run(until=10)
        net.stations[0].rt_pck = 99   # corrupt state
        with pytest.raises(InvariantViolation):
            engine.run(until=20)

    def test_detects_duplicate_order_entry(self):
        engine, net, checker = checked_net(strict=False)
        net.start()
        engine.run(until=10)
        net.order.append(net.order[0])
        engine.run(until=12)
        assert not checker.clean
        assert any("duplicate" in v or "inconsistent" in v
                   for v in checker.violations)

    def test_detects_vanished_packet(self):
        engine, net, checker = checked_net(strict=False)
        net.start()
        engine.run(until=10)
        t0 = engine.now
        p = Packet(src=0, dst=3, service=ServiceClass.PREMIUM, created=t0)
        net.stations[0].enqueue(p, t0)
        net.stations[0].rt_queue.clear()   # packet vanishes
        engine.run(until=20)
        assert any("conservation" in v for v in checker.violations)

    def test_non_strict_accumulates(self):
        engine, net, checker = checked_net(strict=False)
        net.start()
        engine.run(until=10)
        net.stations[0].rt_pck = 99
        engine.run(until=15)
        # accumulates until the SAT pass resets the corrupted counter
        assert len(checker.violations) >= 2
        assert not checker.clean


class TestFuzzSoak:
    """Randomized long-run soak: joins disabled (no channel) but kills,
    leaves, SAT drops and bursty traffic all interleaved, invariants strict.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_dynamics_soak(self, seed):
        rng = random.Random(seed)
        n = 10
        engine = Engine()
        cfg = WRTRingConfig.homogeneous(range(n), l=2, k=1, rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(n)), cfg)
        checker = RingInvariantChecker(net, strict=True).attach(net.events)

        def traffic(t):
            for sid in net.members:
                st = net.stations[sid]
                if not st.alive or st.leaving:
                    continue
                if rng.random() < 0.3 and len(st.rt_queue) < 8:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.PREMIUM,
                                      created=t), t)
                if rng.random() < 0.3 and len(st.be_queue) < 8:
                    dst = rng.choice([d for d in net.members if d != sid])
                    st.enqueue(Packet(src=sid, dst=dst,
                                      service=ServiceClass.BEST_EFFORT,
                                      created=t), t)
        net.add_tick_hook(traffic)
        net.start()

        # interleave random dynamics while the ring is big enough
        for step in range(6):
            engine.run(until=engine.now + rng.randint(200, 600))
            if net.network_down or net.n <= 4:
                break
            action = rng.choice(["kill", "leave", "drop", "none"])
            alive = [s for s in net.members if net.stations[s].alive
                     and not net.stations[s].leaving]
            if action == "kill" and len(alive) > 4:
                net.kill_station(rng.choice(alive))
            elif action == "leave" and len(alive) > 4:
                net.leave_gracefully(rng.choice(alive))
            elif action == "drop" and not net._sat_lost:
                net.drop_sat()
        engine.run(until=engine.now + 2000)
        assert checker.clean, checker.violations[:3]
        # the network either survived or went down cleanly — never hung
        if not net.network_down:
            assert net.rotation_log.all_samples(), "ring stopped rotating"


# ----------------------------------------------------------------------
# active set: the dataplane visits only stations with buffered work
# ----------------------------------------------------------------------
_OPS = hst.lists(
    hst.tuples(hst.sampled_from(["enqueue", "enqueue", "enqueue", "kill",
                                 "leave", "insert", "remove", "run"]),
               hst.integers(min_value=0, max_value=63),
               hst.integers(min_value=0, max_value=63),
               hst.sampled_from(list(ServiceClass))),
    min_size=1, max_size=40)


class TestActiveSet:
    def test_corrupted_active_set_is_reported(self):
        engine, net, checker = checked_net(strict=False)
        net.start()
        net.enqueue(Packet(src=2, dst=4, service=ServiceClass.BEST_EFFORT,
                           created=0.0))
        net._active.discard(2)
        engine.run(until=1)
        assert any("not in the active set" in v for v in checker.violations)

    def test_drained_station_leaves_and_receiver_joins(self):
        engine, net, checker = checked_net()
        net.start()
        net.enqueue(Packet(src=1, dst=3, service=ServiceClass.BEST_EFFORT,
                           created=0.0))
        assert net._active == {1}
        engine.run(until=0)      # slot 0: 1 sends, 2 receives into transit
        assert net._active == {2}
        engine.run(until=1)      # slot 1: 2 forwards, 3 strips it
        assert net._active == set()
        assert net.metrics.total_delivered == 1
        assert checker.clean

    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_coverage_under_mixed_dynamics(self, ops):
        """Random enqueues, kills, graceful leaves, inserts and removals
        between runs: the strict checker (active-set coverage included)
        passes every tick, and after every operation each member with
        buffered work is in the active set at its ring position."""
        engine, net, checker = checked_net(n=6)
        net.start()
        next_sid = 100

        def covered():
            for idx, sid in enumerate(net.order):
                st = net.stations[sid]
                if st.transit or st.queue_length():
                    assert st._ring_pos == idx and idx in net._active

        for op, a, b, service in ops:
            if net.network_down:
                break
            order = net.order
            src, dst = order[a % len(order)], order[b % len(order)]
            alive = [s for s in order if net.stations[s].alive
                     and not net.stations[s].leaving]
            if op == "enqueue" and src != dst and net.stations[src].alive:
                net.enqueue(Packet(src=src, dst=dst, service=service,
                                   created=engine.now))
            elif op == "kill" and len(alive) > 3 and src in alive:
                net.kill_station(src)
            elif op == "leave" and len(alive) > 3 and src in alive:
                net.leave_gracefully(src)
            elif op == "insert" and net.rebuilding_until is None:
                net.insert_station(next_sid, after=src,
                                   quota=QuotaConfig.two_class(2, 2))
                next_sid += 1
            elif (op == "remove" and len(order) > 3
                  and src not in (net.sat.at_station, net.sat.in_flight_to)):
                net.remove_station(src)
            else:
                engine.run(until=engine.now + 1 + b % 8)
            covered()
        engine.run(until=engine.now + 200)
        covered()
        assert checker.clean, checker.violations[:3]
