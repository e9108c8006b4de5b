"""Golden-hash oracle for the ring kernel.

``tests/golden_hashes.json`` pins, for every checked-in corpus bundle,
every scenario of the seeded grid (:func:`seeded_grid`) and the generated
fuzz cases ``generate_case(20260808, i)`` for ``i < 150``, two digests of
a run:

* ``trace`` — the canonical trace hash (``fuzz.runner.hash_trace``);
* ``state`` — a SHA-256 over everything else observable: the fuzz result
  record for cases and bundles, the summary plus the per-station table
  (:func:`station_table`) and the final clock for grid scenarios.
  ``events_executed`` is left out: it counts agenda dispatches, not
  protocol behaviour.

A ``fabric`` section pins two chain fabrics (:data:`FABRIC_SEEDS`) in
serial and sharded mode: the merged trace hash, the flow table and the
ring table without its trailing ``events`` column.

The oracle compares the current kernel against hashes recorded from an
earlier tree, so a dataplane or agenda rewrite must reproduce the old
behaviour byte for byte.

Regenerate (only when a behaviour change is intended, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_hashes.py --write
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Any, Dict, List

import pytest

from repro.core.packet import ServiceClass
from repro.core.quotas import QuotaConfig
from repro.fuzz.bundle import load_bundle
from repro.fuzz.generate import FuzzCase, generate_case
from repro.fuzz.runner import hash_trace, run_case
from repro.scenarios import Scenario, ScenarioResult, TrafficMix, run_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_hashes.json")
CORPUS = sorted(glob.glob(os.path.join(HERE, "corpus", "*.json")))
GEN_SEED = 20260808
GEN_CASES = 150
FABRIC_SEEDS = (5, 7)
FABRIC_MODES = ("serial", "sharded")


def seeded_grid() -> List[Scenario]:
    """The pinned scenario grid: one scenario per protocol regime."""
    from repro.faults import FaultEvent, FaultSchedule
    from repro.qoe.sessions import CallsSpec

    return [
        # idle ring: only the SAT circulates
        Scenario(n=8, traffic=TrafficMix(kind="none"), horizon=4000, seed=11),
        # sparse Poisson: idle stretches interleaved with bursts
        Scenario(n=8, traffic=TrafficMix(kind="poisson", rate=0.01),
                 horizon=3000, seed=12),
        # CBR with deadlines: periodic traffic edges
        Scenario(n=6, traffic=TrafficMix(kind="cbr", period=40.0,
                                         service=ServiceClass.PREMIUM,
                                         deadline=200.0),
                 horizon=3000, seed=13),
        # video bursts to neighbours
        Scenario(n=6, traffic=TrafficMix(kind="video", period=80.0,
                                         neighbours_only=True),
                 horizon=2000, seed=14),
        # saturated sources
        Scenario(n=6, l=2, k=1, traffic=TrafficMix(kind="saturate"),
                 horizon=1000, seed=15),
        # RAP enabled: spontaneous RAP openings
        Scenario(n=8, rap_enabled=True, use_channel=True,
                 traffic=TrafficMix(kind="poisson", rate=0.02),
                 horizon=2000, seed=16),
        # scripted kill + recovery + rebuild machinery
        Scenario(n=8, traffic=TrafficMix(kind="poisson", rate=0.02),
                 faults=FaultSchedule([FaultEvent(time=700.0, kind="kill",
                                                  station=3)]),
                 horizon=2500, seed=17),
        # graceful leave mid-run
        Scenario(n=8, traffic=TrafficMix(kind="poisson", rate=0.02),
                 faults=FaultSchedule([FaultEvent(time=900.0, kind="leave",
                                                  station=5)]),
                 horizon=2500, seed=18),
        # SAT loss -> watchdog recovery
        Scenario(n=6, traffic=TrafficMix(kind="none"),
                 faults=FaultSchedule([FaultEvent(time=500.0,
                                                  kind="drop_signal")]),
                 horizon=2000, seed=19),
        # invariant checker subscribed to every tick
        Scenario(n=6, traffic=TrafficMix(kind="poisson", rate=0.05),
                 check_invariants=True, horizon=1000, seed=20),
        # fractional horizon: the run window edge is off the slot grid
        Scenario(n=8, traffic=TrafficMix(kind="none"), horizon=1234.5,
                 seed=21),
        # voice sessions: call arrivals/teardowns scheduled at priority -1,
        # CAC refusals, a mid-run kill cutting calls
        Scenario(n=8, traffic=TrafficMix(kind="none"),
                 calls=CallsSpec(count=5, arrival_rate=0.01,
                                 mean_holding=800.0),
                 faults=FaultSchedule([FaultEvent(time=1200.0, kind="kill",
                                                  station=2)]),
                 horizon=3000, seed=22),
        # fully backlogged drain to the ring successor from a slot-0 burst
        Scenario(n=6, l=2, k=1,
                 traffic=TrafficMix(kind="prefill", burst=60,
                                    neighbours_only=True),
                 horizon=900, seed=23),
        # mixed-class backlog under three-class quotas with tight Premium
        # deadlines: deadline misses on all three drain budgets
        Scenario(n=6,
                 quotas={sid: QuotaConfig(l=1, k1=1, k2=1)
                         for sid in range(6)},
                 traffic=TrafficMix(kind="prefill", burst=40,
                                    service=ServiceClass.PREMIUM,
                                    deadline=40.0, neighbours_only=True),
                 horizon=900, seed=24),
        # backlogged drain with a mid-drain insert: the membership change
        # rebinds ring positions and successors under load
        Scenario(n=6, l=2, k=1,
                 traffic=TrafficMix(kind="prefill", burst=60,
                                    neighbours_only=True),
                 faults=FaultSchedule([FaultEvent(time=300.0, kind="insert",
                                                  station=77,
                                                  params={"after": 2})]),
                 horizon=900, seed=25),
        # adaptive timers over sparse Poisson: every hop feeds the
        # estimator and re-arms the watchdogs at adaptive deadlines
        Scenario(n=8, adaptive_timers=True,
                 traffic=TrafficMix(kind="poisson", rate=0.01),
                 horizon=3000, seed=26),
        # adaptive timers + scripted kill: expiry-driven SAT_REC with
        # backoff, Karn exclusion during the walk, estimator state kept
        # across the cut-out
        Scenario(n=8, adaptive_timers=True,
                 traffic=TrafficMix(kind="poisson", rate=0.02),
                 faults=FaultSchedule([FaultEvent(time=700.0, kind="kill",
                                                  station=3)]),
                 horizon=2500, seed=27),
        # adaptive timers in a backlogged drain
        Scenario(n=6, l=2, k=1, adaptive_timers=True,
                 traffic=TrafficMix(kind="prefill", burst=60,
                                    neighbours_only=True),
                 horizon=900, seed=28),
    ]


def station_table(result: ScenarioResult) -> Dict[str, Any]:
    """Per-station observable state after a run, plus the SAT's."""
    net = result.network
    table: Dict[str, Any] = {}
    for sid in sorted(net.stations):
        st = net.stations[sid]
        table[str(sid)] = {
            "alive": st.alive,
            "enqueued": {svc.name: cnt for svc, cnt in st.enqueued.items()},
            "sent": {svc.name: cnt for svc, cnt in st.sent.items()},
            "received": {svc.name: cnt for svc, cnt in st.received.items()},
            "queue_depths": st.queue_depths(),
            "sat_visits": st.sat_visits,
            "sat_holds": st.sat_holds,
            "last_sat_seq": st.last_sat_seq,
            "last_sat_arrival": st.last_sat_arrival,
            "last_sat_departure": st.last_sat_departure,
            "rotation_samples": net.rotation_log.samples(sid),
        }
    table["_sat"] = {
        "kind": net.sat.kind, "at": net.sat.at_station,
        "to": net.sat.in_flight_to, "arrival": net.sat.arrival_time,
        "hops": net.sat.hops, "rounds": net.sat.rounds, "seq": net.sat.seq,
    }
    table["_hops_per_round"] = net.rotation_log.hops_per_round()
    return table


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def case_hashes(case: FuzzCase) -> Dict[str, str]:
    record = run_case(case).to_record()
    record.pop("events_executed")
    return {"trace": record["trace_hash"], "state": _digest(record)}


def grid_hashes(idx: int) -> Dict[str, str]:
    return scenario_hashes(seeded_grid()[idx])


def scenario_hashes(scenario: Scenario) -> Dict[str, str]:
    result = run_scenario(scenario)
    summary = result.summary()
    summary.pop("events_executed", None)
    state = {"summary": summary, "table": station_table(result),
             "now": result.engine.now}
    return {"trace": hash_trace(result.trace), "state": _digest(state)}


def fabric_key(seed: int, mode: str) -> str:
    return f"seed{seed}-{mode}"


def fabric_golden(seed: int, mode: str) -> Dict[str, Any]:
    """Trace hash, flow table and ring table (``events`` column dropped)
    of a two-ring chain fabric with two cross-ring flows."""
    from repro.fabric import FabricRunner, Topology

    topo = Topology(rings=2, ring_size=6, layout="chain", cross_flows=2,
                    horizon=600.0, seed=seed)
    with FabricRunner(topo, mode=mode, trace=True) as runner:
        runner.run()
        result = runner.result(include_trace=True)
    return {
        "trace": result.trace_hash(),
        "flows": result.flow_table().splitlines(),
        "rings": [line.rsplit(None, 1)[0]
                  for line in result.ring_table().splitlines()],
    }


def bundle_case(name: str) -> FuzzCase:
    return FuzzCase.from_dict(
        load_bundle(os.path.join(HERE, "corpus", name))["case"])


def compute_all() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return {
        "corpus": {os.path.basename(p): case_hashes(bundle_case(
            os.path.basename(p))) for p in CORPUS},
        "grid": {str(i): grid_hashes(i) for i in range(len(seeded_grid()))},
        "generated": {str(i): case_hashes(generate_case(GEN_SEED, i))
                      for i in range(GEN_CASES)},
        "fabric": {fabric_key(seed, mode): fabric_golden(seed, mode)
                   for seed in FABRIC_SEEDS for mode in FABRIC_MODES},
    }


def _golden() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(GOLDEN) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
class TestGoldenHashes:
    def test_golden_file_covers_every_input(self):
        golden = _golden()
        assert sorted(golden["corpus"]) == [os.path.basename(p)
                                            for p in CORPUS]
        assert len(golden["grid"]) == len(seeded_grid())
        assert len(golden["generated"]) == GEN_CASES
        assert sorted(golden["fabric"]) == sorted(
            fabric_key(s, m) for s in FABRIC_SEEDS for m in FABRIC_MODES)

    @pytest.mark.parametrize("name", [os.path.basename(p) for p in CORPUS])
    def test_corpus_bundle(self, name):
        assert case_hashes(bundle_case(name)) == _golden()["corpus"][name]

    @pytest.mark.parametrize("idx", range(len(seeded_grid())))
    def test_grid_scenario(self, idx):
        assert grid_hashes(idx) == _golden()["grid"][str(idx)]

    @pytest.mark.parametrize("index", range(GEN_CASES))
    def test_generated_case(self, index):
        assert (case_hashes(generate_case(GEN_SEED, index))
                == _golden()["generated"][str(index)])

    @pytest.mark.parametrize("mode", FABRIC_MODES)
    @pytest.mark.parametrize("seed", FABRIC_SEEDS)
    def test_fabric(self, seed, mode):
        assert (fabric_golden(seed, mode)
                == _golden()["fabric"][fabric_key(seed, mode)])


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_hashes.py "
                 "--write")
    with open(GOLDEN, "w") as fh:
        json.dump(compute_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
