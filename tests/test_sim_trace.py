"""Unit tests for the trace recorder."""

import pytest

from repro.events import EVENT_TYPES, EventBus
from repro.events import types as ev
from repro.sim import TraceEvent, TraceRecorder

#: event types whose trace category is opt-in
OPT_IN_TYPES = [cls for cls in EVENT_TYPES
                if cls.trace is not None and cls.trace.opt_in]


def attached(trace=None):
    """A recorder attached to a fresh bus, and an ``emit(etype, ...)``."""
    trace = trace if trace is not None else TraceRecorder()
    bus = EventBus()
    trace.attach(bus)

    def emit(etype, *args):
        # filler payload: the time, then the field positions
        bus.emitter(etype)(*(args or range(len(etype.payload))))

    return trace, emit


class TestRecording:
    def test_record_and_select(self):
        tr = TraceRecorder()
        tr.record(1.0, "tx", src=0, dst=1)
        tr.record(2.0, "rx", src=0, dst=1)
        tr.record(3.0, "tx", src=2, dst=3)
        assert tr.count("tx") == 2
        assert tr.count("rx") == 1
        assert [e.time for e in tr.select("tx")] == [1.0, 3.0]

    def test_fields_access(self):
        tr = TraceRecorder()
        tr.record(1.0, "tx", src=5)
        ev = tr.events[0]
        assert ev["src"] == 5
        assert ev.get("missing", -1) == -1

    def test_select_time_window(self):
        tr = TraceRecorder()
        for t in range(10):
            tr.record(float(t), "tick", n=t)
        sel = tr.select("tick", since=3.0, until=6.0)
        assert [e["n"] for e in sel] == [3, 4, 5, 6]

    def test_select_predicate(self):
        tr = TraceRecorder()
        for t in range(6):
            tr.record(float(t), "tick", n=t)
        sel = tr.select("tick", predicate=lambda e: e["n"] % 2 == 0)
        assert [e["n"] for e in sel] == [0, 2, 4]

    def test_times_and_last(self):
        tr = TraceRecorder()
        tr.record(1.0, "a")
        tr.record(5.0, "b")
        tr.record(9.0, "a", final=True)
        assert tr.times("a") == [1.0, 9.0]
        assert tr.last("a")["final"] is True
        assert tr.last("zzz") is None

    def test_len_and_iter(self):
        tr = TraceRecorder()
        tr.record(1.0, "x")
        tr.record(2.0, "y")
        assert len(tr) == 2
        assert [e.category for e in tr] == ["x", "y"]

    def test_clear(self):
        tr = TraceRecorder()
        tr.record(1.0, "x")
        tr.clear()
        assert len(tr) == 0
        assert tr.count("x") == 0


class TestTraceEvent:
    def test_equality_is_by_value(self):
        assert TraceEvent(1.0, "x", {"a": 1}) == TraceEvent(1.0, "x", {"a": 1})
        assert TraceEvent(1.0, "x", {"a": 1}) != TraceEvent(1.0, "x", {"a": 2})
        assert TraceEvent(1.0, "x", {"a": 1}) != TraceEvent(2.0, "x", {"a": 1})
        assert TraceEvent(1.0, "x") != (1.0, "x", {})

    def test_repr_names_every_field(self):
        assert (repr(TraceEvent(1.0, "x", {"a": 1}))
                == "TraceEvent(time=1.0, category='x', fields={'a': 1})")

    def test_fields_default_to_a_fresh_dict(self):
        a, b = TraceEvent(1.0, "x"), TraceEvent(1.0, "x")
        assert a.fields == {} and a.fields is not b.fields

    def test_slotted_and_unhashable(self):
        ev = TraceEvent(1.0, "x", {})
        assert not hasattr(ev, "__dict__")
        with pytest.raises(TypeError):
            hash(ev)


class TestFiltering:
    """Category switches act on the writers subscribed to the bus."""

    def test_enable_only(self):
        tr, emit = attached()
        tr.enable_only(["sat.release"])
        emit(ev.SatRelease)
        emit(ev.SatLost)
        assert tr.count("sat.release") == 1
        assert tr.count("sat.lost") == 0

    def test_disable_specific(self):
        tr, emit = attached()
        tr.disable("sat.lost")
        emit(ev.SatLost)
        emit(ev.SatRelease)
        assert len(tr) == 1

    def test_reenable(self):
        tr, emit = attached()
        tr.disable("sat.lost")
        tr.enable("sat.lost")
        emit(ev.SatLost)
        assert tr.count("sat.lost") == 1

    def test_globally_disabled(self):
        tr, emit = attached()
        tr.enable_only(())
        for etype in EVENT_TYPES:
            emit(etype)
        assert len(tr) == 0

    def test_switches_set_before_attach_apply(self):
        tr = TraceRecorder()
        tr.enable_only(["sat.lost"])
        tr, emit = attached(tr)
        emit(ev.SatLost)
        emit(ev.SatRelease)
        assert [e.category for e in tr] == ["sat.lost"]

    def test_enable_after_build_records_every_later_arrival(self):
        """Enabling an opt-in category on a built scenario subscribes its
        writer on the network's bus: no second call is needed."""
        from repro.scenarios import Scenario, build_scenario

        built = build_scenario(Scenario(n=6, horizon=300.0, seed=1))
        arrivals = []
        built.network.events.subscribe(ev.SatArrive,
                                       lambda e: arrivals.append(e.t))
        built.trace.enable("sat.arrive")
        built.engine.run(until=300.0)
        assert len(arrivals) >= 250
        assert built.trace.times("sat.arrive") == arrivals

    def test_traced_and_untraced_runs_take_the_same_path(self):
        """Watching a run changes no outcome: every category on (opt-in
        ones included) versus no writer subscribed at all."""
        from repro.faults import FaultSchedule
        from repro.obs import enable_timeline_categories
        from repro.scenarios import Scenario, TrafficMix, build_scenario

        def run(traced):
            built = build_scenario(Scenario(
                n=6, horizon=1500.0, seed=4, rap_enabled=True,
                traffic=TrafficMix(kind="poisson", rate=0.05),
                faults=FaultSchedule.builder().kill(2, at=600).build()))
            if traced:
                enable_timeline_categories(built.trace)
            else:
                built.trace.enable_only(())
            built.engine.run(until=1500.0)
            return built

        traced, untraced = run(True), run(False)
        assert len(traced.trace) > 1000 and len(untraced.trace) == 0
        assert (traced.engine.events_executed
                == untraced.engine.events_executed)
        assert traced.summary() == untraced.summary()
        assert (_state(traced.network.metrics)
                == _state(untraced.network.metrics))


def _state(obj):
    """An object's attribute tree as plain values (for equality)."""
    if hasattr(obj, "__dict__"):
        return {k: _state(v) for k, v in vars(obj).items()}
    if isinstance(obj, dict):
        return {k: _state(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_state(v) for v in obj]
    return obj


class TestCategoryIndex:
    """select/times/last answer from the per-category index — it must stay
    consistent with the flat event list through every mutation."""

    def test_index_matches_linear_scan(self):
        tr = TraceRecorder()
        for t in range(50):
            tr.record(float(t), f"cat.{t % 5}", n=t)
        for c in range(5):
            indexed = tr.select(f"cat.{c}")
            scanned = [e for e in tr.events if e.category == f"cat.{c}"]
            assert indexed == scanned

    def test_index_survives_clear(self):
        tr = TraceRecorder()
        tr.record(1.0, "a")
        tr.clear()
        tr.record(2.0, "a")
        assert tr.times("a") == [2.0]
        assert len(tr.select("a")) == 1

    def test_unknown_category_is_empty(self):
        tr = TraceRecorder()
        tr.record(1.0, "a")
        assert tr.select("zzz") == []
        assert tr.times("zzz") == []
        assert tr.last("zzz") is None

    def test_select_without_category_scans_everything(self):
        tr = TraceRecorder()
        tr.record(1.0, "a")
        tr.record(2.0, "b")
        assert len(tr.select()) == 2
        assert len(tr.select(since=1.5)) == 1


class TestOptInCategories:
    def test_opt_in_disabled_by_default(self):
        tr, emit = attached()
        assert OPT_IN_TYPES
        for etype in OPT_IN_TYPES:
            assert not tr.is_enabled(etype.trace.category)
            emit(etype)
        assert len(tr) == 0

    def test_opt_in_enabled_explicitly(self):
        tr, emit = attached()
        tr.enable(*(etype.trace.category for etype in OPT_IN_TYPES))
        for etype in OPT_IN_TYPES:
            emit(etype)
        assert len(tr) == len(OPT_IN_TYPES)

    def test_non_opt_in_categories_unaffected(self):
        tr, emit = attached()
        emit(ev.SatRelease, 1.0, 0, 1)
        assert tr.count("sat.release") == 1

    def test_enable_only_overrides_opt_in_default(self):
        tr, emit = attached()
        tr.enable_only(["slot.occupancy"])
        emit(ev.SlotOccupancy, 1.0, 1, 4)
        emit(ev.SatRelease)
        assert tr.count("slot.occupancy") == 1
        assert tr.count("sat.release") == 0


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tr = TraceRecorder()
        tr.record(1.0, "tx", src=0, dst=1)
        tr.record(2.5, "sat.rotation", station=3, rotation=7.0)
        path = tmp_path / "trace.jsonl"
        assert tr.to_jsonl(path) == 2
        back = TraceRecorder.from_jsonl(path)
        assert len(back) == 2
        assert back.events[0].category == "tx"
        assert back.events[0]["src"] == 0
        assert back.events[1].time == 2.5
        assert back.events[1]["rotation"] == 7.0

    def test_round_trip_with_colliding_field_names(self, tmp_path):
        """Fields named ``time``/``category`` must survive export intact —
        they used to collide with the event header keys."""
        tr = TraceRecorder()
        tr.record(1.0, "timer", time=99.0, category="shadow", value=7)
        tr.record(2.0, "plain", other=1)
        path = tmp_path / "trace.jsonl"
        assert tr.to_jsonl(path) == 2
        back = TraceRecorder.from_jsonl(path)
        ev = back.events[0]
        assert ev.time == 1.0 and ev.category == "timer"
        assert ev["time"] == 99.0 and ev["category"] == "shadow"
        assert ev["value"] == 7
        assert back.events[1].fields == {"other": 1}

    def test_legacy_flat_format_still_loads(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text('{"time": 1.0, "category": "tx", "src": 3}\n')
        back = TraceRecorder.from_jsonl(path)
        assert back.events[0].category == "tx"
        assert back.events[0]["src"] == 3

    def test_non_serializable_fields_stringified(self, tmp_path):
        tr = TraceRecorder()
        tr.record(1.0, "weird", payload=object())
        path = tmp_path / "trace.jsonl"
        tr.to_jsonl(path)
        back = TraceRecorder.from_jsonl(path)
        assert isinstance(back.events[0]["payload"], str)

    def test_live_network_trace_exports(self, tmp_path):
        from repro.core import WRTRingConfig, WRTRingNetwork
        from repro.sim import Engine
        engine = Engine()
        trace = TraceRecorder()
        trace.enable_only(["sat.release", "sat.rotation"])
        cfg = WRTRingConfig.homogeneous(range(4), l=1, k=1,
                                        rap_enabled=False)
        net = WRTRingNetwork(engine, list(range(4)), cfg, trace=trace)
        net.start()
        engine.run(until=50)
        path = tmp_path / "net.jsonl"
        count = trace.to_jsonl(path)
        assert count > 20
        back = TraceRecorder.from_jsonl(path)
        rotations = back.select("sat.rotation")
        assert rotations and all(ev["rotation"] == 4.0 for ev in rotations)

    def test_opt_in_records_survive_reload(self, tmp_path):
        tr, emit = attached()
        tr.enable("slot.occupancy")
        emit(ev.SlotOccupancy, 1.0, 1, 4)
        emit(ev.SatRelease, 1.0, 0, 1)
        path = tmp_path / "trace.jsonl"
        assert tr.to_jsonl(path) == 2
        back = TraceRecorder.from_jsonl(path)
        assert back.events == tr.events
        assert back.count("slot.occupancy") == 1

    def test_timeline_run_round_trips_exactly(self, tmp_path):
        """A live run with the timeline's opt-in categories on reloads to
        the same events and the same canonical trace hash."""
        from repro.faults import FaultSchedule
        from repro.fuzz.runner import hash_trace
        from repro.obs import enable_timeline_categories
        from repro.scenarios import Scenario, TrafficMix, build_scenario

        built = build_scenario(Scenario(
            n=6, horizon=1000.0, seed=3, rap_enabled=True,
            traffic=TrafficMix(kind="poisson", rate=0.05),
            faults=FaultSchedule.builder().kill(2, at=400).build()))
        enable_timeline_categories(built.trace)
        built.engine.run(until=1000.0)
        assert built.trace.count("slot.occupancy") > 0
        assert built.trace.count("sat.arrive") > 0

        path = tmp_path / "run.jsonl"
        assert built.trace.to_jsonl(path) == len(built.trace)
        back = TraceRecorder.from_jsonl(path)
        assert back.events == built.trace.events
        assert hash_trace(back) == hash_trace(built.trace)

