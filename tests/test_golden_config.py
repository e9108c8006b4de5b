"""Golden-config oracle for the scenario and topology dict forms.

``tests/golden_config.json`` pins, for a fixed input set, everything a
scenario's dict form feeds:

* ``text`` — SHA-256 of ``json.dumps(scenario_to_dict(s), indent=2)``
  (``topology_to_dict`` for fabrics): the exact bytes of a saved config,
  key order included;
* ``resolved`` — SHA-256 of ``json.dumps(resolved_config(), indent=2)``,
  the config echo of every summary and campaign record;
* ``point`` — the campaign cache key (``campaign.point_hash``) of the dict.

The inputs are the corpus bundles, the benchmark's frozen inputs, the 150
golden generated fuzz cases, 60 chaos+adaptive cases, the seeded grid, the
example configs, hand-built scenarios covering every section, and fabrics
with explicit links and flows.  Sweeps pin their spec text (which names the
default result store) and the cache key of every expanded point, and
``argv`` pins the base scenario each CLI command line builds.

Regenerate (only when the dict form is meant to change, and say so in
CHANGES.md)::

    PYTHONPATH=src python -m tests.test_golden_config --write
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Any, Dict, List, Tuple

import pytest

from repro.campaign import Sweep, point_hash
from repro.config_io import scenario_from_dict, scenario_to_dict
from repro.core.packet import ServiceClass
from repro.core.quotas import QuotaConfig
from repro.fabric.topology import (CrossFlow, GatewayLink, Topology,
                                   topology_from_dict, topology_to_dict)
from repro.faults import FaultEvent, FaultSchedule
from repro.fuzz.bundle import load_bundle
from repro.fuzz.generate import generate_case
from repro.phy.geometry import Arena
from repro.phy.impairments import ImpairmentSpec, NoiseBurst
from repro.qoe.sessions import CallsSpec
from repro.scenarios import MobilitySpec, Scenario, ScenarioResult, TrafficMix

from .test_config_io import full_scenario
from .test_golden_hashes import GEN_CASES, GEN_SEED, seeded_grid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden_config.json")
CHAOS_CASES = 60


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hand_built() -> List[Scenario]:
    """Scenarios that between them set every option to a non-default."""
    return [
        Scenario(),
        full_scenario(),
        Scenario(n=5, placement="uniform", arena=Arena(60.0, 40.0),
                 range_margin=3.0, validate_phy=True, use_channel=True,
                 traffic=TrafficMix(kind="onoff", peak_rate=0.1,
                                    mean_on=120.0, mean_off=480.0,
                                    service=ServiceClass.ASSURED,
                                    deadline=90.0),
                 horizon=700.0, seed=5),
        Scenario(n=6, traffic=TrafficMix(kind="voice", burst=3),
                 adaptive_timers=True, horizon=900.0, seed=6),
        Scenario(n=6, traffic=TrafficMix(kind="prefill", burst=40,
                                         neighbours_only=True),
                 quotas={0: QuotaConfig(1, 1, 1), 3: QuotaConfig(2, 0, 1)}),
        Scenario(n=4, traffic=TrafficMix(kind="backlog", rate=0.3)),
        Scenario(n=4, traffic=TrafficMix(kind="video", period=80.0)),
        Scenario(n=4, traffic=TrafficMix(kind="saturate")),
        Scenario(n=7, rap_enabled=True, use_channel=True,
                 traffic=TrafficMix(kind="none"),
                 calls=CallsSpec(count=9, arrival_rate=0.02,
                                 mean_holding=700.0, packet_period=10.0,
                                 mean_talkspurt=200.0, mean_silence=300.0,
                                 deadline=80.0, service="assured",
                                 mos_floor=3.9, slot_ms=2.0,
                                 video_fraction=0.5, admission=False,
                                 join_via_rap=True)),
        Scenario(n=8, impairments=ImpairmentSpec(
            loss_prob=0.01, ge_p_gb=0.02, ge_p_bg=0.3, ge_loss_good=0.05,
            ge_loss_bad=0.8, bursts=(NoiseBurst(100.0, 200.0),
                                     NoiseBurst(300.0, 350.0, code=2))),
            mobility=MobilitySpec(wander_radius=1.5),
            faults=FaultSchedule([
                FaultEvent(time=300.0, kind="insert", station=77,
                           params={"after": 2, "quota": [1, 1, 0]}),
                FaultEvent(time=100.0, kind="drop_signal"),
                FaultEvent(time=500.0, kind="stale_sat", params={"seq": 3}),
            ])),
        Scenario(n=5, impairments=ImpairmentSpec(), faults=FaultSchedule([])),
    ]


def topologies() -> List[Topology]:
    return [
        Topology(),
        Topology(rings=3, ring_size=5, layout="cycle",
                 gateway_placement="first",
                 links=[GatewayLink(0, 0, 1, 2), GatewayLink(1, 4, 2, 0)],
                 flows=[CrossFlow(0, 1, 2, 3, kind="poisson", rate=0.03,
                                  service=ServiceClass.ASSURED,
                                  deadline=80.0),
                        CrossFlow(2, 0, 0, 4)],
                 base=Scenario(adaptive_timers=True,
                               traffic=TrafficMix(kind="cbr", period=30.0)),
                 cross_flows=2, flow_kind="poisson", flow_rate=0.04,
                 flow_period=40.0, flow_service=ServiceClass.BEST_EFFORT,
                 min_ring_hops=2, gateway_buffer=16, frame_ttl=100.0,
                 sync_window=12.0, horizon=900.0, seed=4),
        Topology(rings=2, ring_size=6, cross_flows=2, horizon=150.0,
                 flow_deadline=60.0, links=[], flows=[]),
    ]


def config_inputs() -> Dict[str, Tuple[str, Any]]:
    """``name -> (kind, input)``; a dict input is parsed first."""
    out: Dict[str, Tuple[str, Any]] = {}
    for path in sorted(glob.glob(os.path.join(HERE, "corpus", "*.json"))):
        out["corpus/" + os.path.basename(path)] = (
            "scenario", load_bundle(path)["case"]["scenario"])
    inputs_dir = os.path.join(ROOT, "wrtbench", "inputs")
    for name in ("light_poisson", "saturated_mixed", "lossy_adaptive"):
        with open(os.path.join(inputs_dir, f"{name}.json")) as fh:
            out[f"wrtbench/{name}"] = ("scenario", json.load(fh))
    with open(os.path.join(inputs_dir, "fuzz_replay.json")) as fh:
        for i, case in enumerate(json.load(fh)["cases"]):
            out[f"wrtbench/fuzz_replay/{i}"] = ("scenario", case["scenario"])
    for i in range(GEN_CASES):
        out[f"generated/{i}"] = ("scenario",
                                 generate_case(GEN_SEED, i).scenario)
    for i in range(CHAOS_CASES):
        out[f"chaos/{i}"] = ("scenario", generate_case(
            GEN_SEED, i, chaos=True, adaptive=True).scenario)
    for i, scn in enumerate(seeded_grid()):
        out[f"grid/{i}"] = ("scenario", scn)
    for i, scn in enumerate(hand_built()):
        out[f"hand/{i}"] = ("scenario", scn)
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.json"))):
        with open(path) as fh:
            data = json.load(fh)
        kind = "topology" if "topology" in data else "scenario"
        out["examples/" + os.path.basename(path)] = (kind, data)
    for i, topo in enumerate(topologies()):
        out[f"topology/{i}"] = ("topology", topo)
    return out


def config_golden(kind: str, value: Any) -> Dict[str, str]:
    if kind == "topology":
        topo = topology_from_dict(value) if isinstance(value, dict) else value
        data = topology_to_dict(topo)
        return {"text": _sha(json.dumps(data, indent=2)),
                "point": point_hash(data)}
    scn = scenario_from_dict(value) if isinstance(value, dict) else value
    data = scenario_to_dict(scn)
    resolved = ScenarioResult(scn, *[None] * 6).resolved_config()
    return {"text": _sha(json.dumps(data, indent=2)),
            "resolved": _sha(json.dumps(resolved, indent=2)),
            "point": point_hash(data)}


def sweeps() -> Dict[str, Sweep]:
    return {
        "grid": Sweep(base=Scenario(n=6, horizon=500.0, seed=3),
                      axes={"n": [4, 8], "l": [1, 2],
                            "traffic.rate": [0.01, 0.05]}, seed=5),
        "points": Sweep(base=full_scenario(), points=[
            {"quotas.0": [1, 1, 1]}, {"faults": []},
            {"adaptive_timers": True, "seed": 4},
            {"traffic.kind": "voice", "traffic.mean_on": 90.0}]),
        "zip": Sweep(base=Scenario(traffic=TrafficMix(kind="cbr")),
                     axes={"n": [4, 6], "horizon": [400.0, 600.0]},
                     mode="zip", derive_seeds=False),
        "fabric": Sweep(topology=topologies()[1],
                        axes={"topology.rings": [3, 4],
                              "topology.cross_flows": [1, 2]}, seed=2),
    }


def sweep_golden(sweep: Sweep) -> Dict[str, Any]:
    """The spec text behind the default store name, and every point's
    override key and cache key."""
    return {"spec": _sha(sweep.spec_hash_material()),
            "points": [[p.key, point_hash(p.scenario_dict)]
                       for p in sweep.expand()]}


#: command lines whose built base scenario is pinned; a ``.json`` argument
#: is a path relative to the repository root
ARGV: Dict[str, List[str]] = {
    "simulate-default": ["simulate"],
    "simulate-scalars": ["simulate", "--n", "6", "--l", "3", "--k", "2",
                         "--horizon", "1500", "--seed", "9",
                         "--traffic", "cbr", "--period", "25",
                         "--service", "assured", "--deadline", "120"],
    "simulate-onoff": ["simulate", "--traffic", "onoff", "--peak-rate", "0.1",
                       "--mean-on", "200", "--mean-off", "400",
                       "--service", "be", "--rate", "0.02"],
    "simulate-calls": ["simulate", "--traffic", "voice", "--calls", "12",
                       "--call-rate", "0.01", "--call-holding", "900",
                       "--call-deadline", "90", "--call-mos-floor", "3.8",
                       "--call-video-fraction", "0.25", "--calls-via-rap",
                       "--no-call-admission"],
    "simulate-chaos": ["simulate", "--rap", "--wander", "1.5",
                       "--kill", "2:400,3:900", "--leave", "5:700",
                       "--loss-prob", "0.01", "--ge", "0.01:0.2:0.9",
                       "--noise-burst", "100:200",
                       "--noise-burst", "300:350:2",
                       "--check-invariants", "--adaptive-timers"],
    "simulate-config": ["simulate", "--config",
                        "examples/conference_call.json", "--n", "4"],
    "simulate-config-adaptive": ["simulate", "--config",
                                 "examples/conference_call.json",
                                 "--adaptive-timers"],
    "sweep-default": ["sweep", "--axis", "n=4,8"],
    "sweep-scalars": ["sweep", "--axis", "l=1,2", "--n", "6", "--l", "3",
                      "--k", "2", "--horizon", "800", "--seed", "4",
                      "--traffic", "saturate", "--rate", "0.2",
                      "--period", "15"],
    "sweep-dotted": ["sweep", "--axis", "traffic.rate=0.01,0.02",
                     "--traffic", "cbr", "--mode", "zip"],
    "fabric-default": ["fabric"],
    "fabric-flags": ["fabric", "--rings", "3", "--ring-size", "5",
                     "--layout", "star", "--placement", "first",
                     "--flows", "2", "--flow-kind", "poisson",
                     "--flow-rate", "0.03", "--flow-period", "40",
                     "--flow-service", "be", "--deadline", "90",
                     "--min-hops", "2", "--gateway-buffer", "16",
                     "--ttl", "120", "--sync-window", "9",
                     "--horizon", "700", "--seed", "5"],
}


class _Built(Exception):
    def __init__(self, value):
        super().__init__()
        self.value = value


def argv_golden(argv: List[str], monkeypatch, store: str) -> Dict[str, Any]:
    """The base scenario (and, for sweeps, the point keys) ``argv`` builds,
    captured where the command would start running it; a fabric command
    line saves its topology instead."""
    import repro.campaign
    import repro.cli

    def capture_run(scenario, *_args, **_kwargs):
        raise _Built(scenario)

    def capture_sweep(sweep, *_args, **_kwargs):
        raise _Built(sweep)

    monkeypatch.setattr(repro.cli, "_run_observed", capture_run)
    monkeypatch.setattr(repro.campaign, "CampaignRunner", capture_sweep)
    argv = [os.path.join(ROOT, a) if a.endswith(".json") else a
            for a in argv]
    if argv[0] == "fabric":
        path = os.path.join(store, "topology.json")
        assert repro.cli.main(argv + ["--save", path]) == 0
        with open(path) as fh:
            return {"topology": json.load(fh)}
    if argv[0] == "sweep":
        argv += ["--store", store, "--quiet"]
    with pytest.raises(_Built) as built:
        repro.cli.main(argv)
    value = built.value.value
    if isinstance(value, Sweep):
        return {"base": scenario_to_dict(value.base), **sweep_golden(value)}
    return {"base": scenario_to_dict(value)}


def compute_all(monkeypatch, store: str) -> Dict[str, Any]:
    return {
        "configs": {name: config_golden(kind, value)
                    for name, (kind, value) in config_inputs().items()},
        "sweeps": {name: sweep_golden(sweep)
                   for name, sweep in sweeps().items()},
        "argv": {name: argv_golden(argv, monkeypatch, store)
                 for name, argv in ARGV.items()},
    }


def _golden() -> Dict[str, Any]:
    with open(GOLDEN) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
INPUTS = config_inputs()


class TestGoldenConfig:
    def test_golden_file_covers_every_input(self):
        golden = _golden()
        assert sorted(golden["configs"]) == sorted(INPUTS)
        assert sorted(golden["sweeps"]) == sorted(sweeps())
        assert sorted(golden["argv"]) == sorted(ARGV)

    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_config(self, name):
        kind, value = INPUTS[name]
        assert config_golden(kind, value) == _golden()["configs"][name]

    @pytest.mark.parametrize("name", sorted(sweeps()))
    def test_sweep_point_keys(self, name):
        assert sweep_golden(sweeps()[name]) == _golden()["sweeps"][name]

    @pytest.mark.parametrize("name", sorted(ARGV))
    def test_cli_base_scenario(self, name, monkeypatch, tmp_path):
        got = argv_golden(ARGV[name], monkeypatch, str(tmp_path))
        want = _golden()["argv"][name]
        # compared as text so the key order is pinned too
        assert json.dumps(got, indent=2) == json.dumps(want, indent=2)


if __name__ == "__main__":
    import sys
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_golden_config "
                 "--write")
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        golden = compute_all(mp, tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
