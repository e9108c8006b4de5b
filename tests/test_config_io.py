"""Tests for scenario JSON (de)serialization and the --config CLI path."""

import glob
import json
import os

import pytest

from repro.config_io import (load_scenario, save_scenario, scenario_from_dict,
                             scenario_to_dict)
from repro.core import QuotaConfig, ServiceClass
from repro.faults import FaultSchedule
from repro.fuzz.bundle import load_bundle
from repro.scenarios import MobilitySpec, Scenario, TrafficMix, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.json")))
CORPUS = sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.json")))


def full_scenario():
    return Scenario(
        n=6, placement="circle", radius=25.0, range_margin=2.4,
        l=2, k=2, rap_enabled=True, t_ear=7, t_update=4,
        quotas={sid: QuotaConfig.three_class(2, 1, 1) for sid in range(6)},
        traffic=TrafficMix(kind="cbr", period=30.0,
                           service=ServiceClass.PREMIUM, deadline=400.0),
        mobility=MobilitySpec(wander_radius=2.0, speed=0.3, update_every=20),
        faults=FaultSchedule.builder().kill(3, at=1000).build(),
        check_invariants=True, horizon=2500.0, seed=9)


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        scn = full_scenario()
        data = scenario_to_dict(scn)
        back = scenario_from_dict(data)
        assert scenario_to_dict(back) == data

    def test_json_round_trip(self, tmp_path):
        scn = full_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(scn, path)
        loaded = load_scenario(path)
        assert scenario_to_dict(loaded) == scenario_to_dict(scn)
        # the file is genuinely JSON
        json.loads(path.read_text())

    def test_round_tripped_scenario_runs_identically(self, tmp_path):
        scn = Scenario(n=5, horizon=1200, seed=4,
                       traffic=TrafficMix(kind="poisson", rate=0.06))
        path = tmp_path / "s.json"
        save_scenario(scn, path)
        a = run_scenario(scn).summary()
        b = run_scenario(load_scenario(path)).summary()
        assert a == b

    def test_minimal_dict(self):
        scn = scenario_from_dict({"n": 4, "horizon": 500})
        assert scn.n == 4 and scn.horizon == 500
        assert scn.traffic.kind == "poisson"   # defaults kept

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"n": 4, "warp_drive": True})

    def test_unknown_service_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"traffic": {"kind": "cbr",
                                            "service": "platinum"}})

    def test_onoff_traffic_round_trip(self):
        scn = Scenario(n=6, traffic=TrafficMix(kind="onoff", peak_rate=0.08,
                                               mean_on=120.0, mean_off=480.0),
                       horizon=1000.0, seed=3)
        data = scenario_to_dict(scn)
        assert data["traffic"]["peak_rate"] == 0.08
        back = scenario_from_dict(data)
        assert back.traffic.kind == "onoff"
        assert back.traffic.mean_on == 120.0
        assert scenario_to_dict(back) == data

    def test_calls_round_trip(self):
        from repro.qoe.sessions import CallsSpec
        scn = Scenario(n=8, rap_enabled=True, use_channel=True,
                       traffic=TrafficMix(kind="none"),
                       calls=CallsSpec(count=20, arrival_rate=0.01,
                                       deadline=300.0, join_via_rap=True),
                       horizon=2000.0, seed=4)
        data = scenario_to_dict(scn)
        back = scenario_from_dict(data)
        assert back.calls == scn.calls
        assert scenario_to_dict(back) == data

    def test_no_calls_key_when_absent(self):
        data = scenario_to_dict(Scenario(n=4))
        assert "calls" not in data
        assert scenario_from_dict(data).calls is None

    def test_faults_survive(self):
        scn = full_scenario()
        back = scenario_from_dict(scenario_to_dict(scn))
        assert len(back.faults.events) == 1
        assert back.faults.events[0].kind == "kill"
        assert back.faults.events[0].station == 3


class TestCliConfig:
    def test_simulate_with_config_file(self, tmp_path, capsys):
        from repro.cli import main
        scn = Scenario(n=5, horizon=1000, seed=2,
                       traffic=TrafficMix(kind="poisson", rate=0.05,
                                          service=ServiceClass.PREMIUM,
                                          deadline=300.0))
        path = tmp_path / "cfg.json"
        save_scenario(scn, path)
        rc = main(["simulate", "--config", str(path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delivered"] > 0
        assert payload["bound_holds"]


class TestMalformedConfig:
    """Malformed nested input fails as a ValueError naming the bad key or
    station, and ``simulate --config`` reports it without a traceback."""

    CASES = {
        "traffic": ({"traffic": {"rte": 0.02}}, "rte"),
        "arena": ({"arena": {"width": 50.0, "depth": 9.0}}, "depth"),
        "mobility": ({"mobility": {"wander_radius": 1.0, "sped": 2.0}},
                     "sped"),
        "short_quota": ({"n": 4, "quotas": {"0": [1, 2]}}, "station 0"),
        "top_level": ({"n": 4, "warp_drive": True}, "warp_drive"),
        "service_type": ({"traffic": {"service": 3}}, "traffic.service"),
        "fault_missing_time": ({"faults": [{"kind": "kill"}]}, "time"),
        "fault_unknown_key": ({"faults": [{"time": 5.0, "kind": "kill",
                                           "station": 1, "at": 9.0}]}, "at"),
        "null_arena": ({"arena": None}, "arena"),
        "null_traffic": ({"traffic": None}, "traffic"),
        "quota_station_id": ({"quotas": {"x": [1, 1, 1]}}, "quotas key 'x'"),
        "burst_without_end": ({"impairments": {"bursts": [{"start": 5.0}]}},
                              "end"),
        "wrong_scalar_type": ({"n": "eight"}, "scenario"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_value_error_names_the_key(self, name):
        data, needle = self.CASES[name]
        with pytest.raises(ValueError, match=needle):
            scenario_from_dict(data)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_simulate_reports_bad_config(self, name, tmp_path):
        from repro.cli import main
        data, needle = self.CASES[name]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(path)])
        message = str(exc.value.code)
        assert message.startswith("bad config: ")
        assert needle in message

    def test_topology_unknown_flow_service(self):
        from repro.fabric.topology import topology_from_dict
        with pytest.raises(ValueError, match="flow_service"):
            topology_from_dict({"topology": {"flow_service": "platinum"}})


class TestLegacyKernelKey:
    """``kernel`` was the retired tick-driver choice: old configs, bundles
    and campaign points that carry it still load, and it changes nothing."""

    def test_scenario_has_no_kernel_field(self):
        assert "kernel" not in Scenario.__dataclass_fields__
        assert "kernel" not in scenario_to_dict(full_scenario())

    @pytest.mark.parametrize("value", ["scalar", "batched"])
    def test_legacy_key_loads_and_changes_nothing(self, value):
        from repro.fuzz.runner import hash_trace
        data = {"n": 6, "horizon": 800.0, "seed": 3,
                "traffic": {"kind": "poisson", "rate": 0.05}}
        legacy = scenario_from_dict({**data, "kernel": value})
        assert legacy == scenario_from_dict(data)
        assert (hash_trace(run_scenario(legacy).trace)
                == hash_trace(run_scenario(scenario_from_dict(data)).trace))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="gpu"):
            scenario_from_dict({"n": 4, "kernel": "gpu"})

    def test_legacy_fuzz_case_replays_identically(self):
        from repro.fuzz.generate import FuzzCase
        from repro.fuzz.runner import run_case
        case = FuzzCase.from_dict(load_bundle(CORPUS[0])["case"])
        legacy = FuzzCase.from_dict({**case.to_dict(), "scenario": {
            **case.scenario, "kernel": "batched"}})
        assert (run_case(legacy).to_record()["trace_hash"]
                == run_case(case).to_record()["trace_hash"])

    def test_cli_rejects_kernel_flag(self):
        from repro.cli import main
        for argv in (["simulate", "--kernel", "scalar"],
                     ["fabric", "--kernel", "scalar"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("path", EXAMPLES,
                             ids=[os.path.basename(p) for p in EXAMPLES])
    def test_example_configs_round_trip(self, path):
        from repro.fabric.topology import topology_from_dict, topology_to_dict
        text = open(path).read()
        data = json.loads(text)
        if "topology" in data:
            back = topology_to_dict(topology_from_dict(data))
        else:
            back = scenario_to_dict(scenario_from_dict(data))
        assert json.dumps(back, indent=2) == text.rstrip("\n")

    @pytest.mark.parametrize("path", CORPUS,
                             ids=[os.path.basename(p) for p in CORPUS])
    def test_corpus_bundles_round_trip(self, path):
        # the bundle's sparse scenario dict normalizes to a fixed point
        # that keeps every key it carries, with or without a legacy kernel
        scenario = load_bundle(path)["case"]["scenario"]
        full = scenario_to_dict(scenario_from_dict(scenario))
        assert scenario_to_dict(scenario_from_dict(full)) == full
        assert {k: full[k] for k in scenario} == scenario
        assert scenario_to_dict(scenario_from_dict(
            {**scenario, "kernel": "batched"})) == full
