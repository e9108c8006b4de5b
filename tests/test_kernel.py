"""Run-window tests for the ring kernel (the scalar slot tick).

However an engine run is cut — into chunks with off-grid edges, into
``max_events`` budgets, or by a mid-run stop — the ring must end in the
state of one uninterrupted run.  Whole-run behaviour is pinned by the
golden hashes (test_golden_hashes.py); these tests pin the edges, so a
golden failure caused by a driving bug can be localized instead of
bisected.
"""

from repro.core import Packet, ServiceClass, WRTRingConfig, WRTRingNetwork
from repro.sim import Engine

HORIZON = 2000.0
ARRIVAL = 777.25


def make_net(n=6, l=2, k=2, **cfg_kwargs):
    engine = Engine()
    cfg_kwargs.setdefault("rap_enabled", False)
    cfg = WRTRingConfig.homogeneous(range(n), l=l, k=k, **cfg_kwargs)
    net = WRTRingNetwork(engine, list(range(n)), cfg)
    net.start()
    # a mid-slot arrival in an otherwise idle ring
    engine.schedule_at(ARRIVAL, lambda: net.enqueue(
        Packet(src=2, dst=4, service=ServiceClass.PREMIUM,
               created=engine.now)))
    return engine, net


def snapshot(net):
    """Every protocol-visible scalar of the network, for exact comparison."""
    sat = net.sat
    state = {
        "now": net.engine.now,
        "sat": (sat.kind, sat.at_station, sat.in_flight_to, sat.arrival_time,
                sat.hops, sat.rounds, sat.seq),
        "hops_per_round": net.rotation_log.hops_per_round(),
        "timers": {sid: t.deadline if t.running else None
                   for sid, t in net.recovery.timers.items()},
    }
    for sid in sorted(net.stations):
        st = net.stations[sid]
        state[sid] = (st.alive, st.sat_visits, st.sat_holds, st.last_sat_seq,
                      st.last_sat_arrival, st.last_sat_departure,
                      st.rt_pck, st.nrt_pck, st.as_pck, st.be_pck,
                      dict(st.sent), dict(st.received),
                      net.rotation_log.samples(sid))
    return state


def one_run(until=HORIZON, **cfg_kwargs):
    """Snapshot of the reference: a single ``run`` straight to ``until``."""
    engine, net = make_net(**cfg_kwargs)
    engine.run(until=until)
    assert engine.now == until
    return snapshot(net)


# ======================================================================
class TestFastForward:
    """Run-window edges that any idle jump to the next SAT hop must
    respect: mid-gap arrivals, off-grid ``until``, resumed chunks and
    multi-slot SAT hops."""

    def test_mid_gap_enqueue_parity(self):
        engine, net = make_net()
        for upto in (ARRIVAL - 0.25, ARRIVAL, ARRIVAL + 0.5, HORIZON):
            engine.run(until=upto)
        assert net.stations[4].received[ServiceClass.PREMIUM] == 1
        assert snapshot(net) == one_run()

    def test_fractional_until_clamps_identically(self):
        engine, net = make_net(8)
        engine.run(until=600.25)
        engine.run(until=1234.5)
        assert engine.now == 1234.5
        assert snapshot(net) == one_run(1234.5, n=8)

    def test_resume_across_run_chunks(self):
        # state must survive run() returning and being called again
        engine, net = make_net()
        for upto in (300.0, 301.0, 950.5, HORIZON):
            engine.run(until=upto)
            assert snapshot(net) == one_run(upto), \
                f"diverged at until={upto}"

    def test_multi_slot_hop_parity(self):
        # SAT hop latency > 1 slot: hop times stride the slot grid
        engine, net = make_net(sat_hop_slots=3)
        for upto in (300.0, 301.0, 950.5, 1234.5, HORIZON):
            engine.run(until=upto)
            assert engine.now == upto
        assert snapshot(net) == one_run(sat_hop_slots=3)


# ======================================================================
class TestBudgetAndStop:
    def test_max_events_budget_matches_scalar_clock(self):
        # budgeted chunks end at the same clock on identical rings, short
        # of the window, and the budgeted run then ends where one run does
        runs = [make_net(5), make_net(5)]
        for _ in range(40):
            clocks = []
            for engine, _net in runs:
                engine.run(until=HORIZON, max_events=7)
                clocks.append(engine.now)
            assert clocks[0] == clocks[1] < HORIZON
        engine, net = runs[0]
        engine.run(until=HORIZON)
        assert snapshot(net) == one_run(n=5)

    def test_budget_then_unbudgeted_resume(self):
        engine, net = make_net(5)
        engine.run(until=10_000.0, max_events=13)
        assert engine.now < 800.0
        engine.run(until=800.0)
        assert engine.now == 800.0
        assert snapshot(net) == one_run(800.0, n=5)

    def test_stop_mid_run_leaves_consistent_clock(self):
        engine, net = make_net(5)
        engine.schedule_at(97.5, engine.stop)
        engine.run(until=5000.0)
        assert engine.now == 97.5
        assert snapshot(net) == one_run(97.5, n=5)
        # and it resumes cleanly after the stop
        engine.run(until=500.0)
        assert snapshot(net) == one_run(500.0, n=5)

