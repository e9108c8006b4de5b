"""Self-tests of the benchmark (not part of the tier-1 suite).

    python3 -m pytest wrtbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import RUN, SETUP, SpanLog, Tracer, analyse  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def small(name: str, horizon: float = 300.0, seed: int = DEFAULT_SEED):
    """A workload's inputs cut down to a short horizon (one instance)."""
    inputs = WORKLOADS[name].inputs(seed)
    inputs.data = [dict(inputs.data[0], horizon=horizon)]
    inputs.reference = None
    return inputs


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_of_a_synthetic_nest():
    log = SpanLog()
    root = log.name_id("root", "engine", RUN)
    a, b = log.name_id("a", "dataplane"), log.name_id("b", "sat")
    build = log.name_id("build", "build", SETUP)
    r = log.add(root, 0.0, 10.0, -1)
    ia = log.add(a, 1.0, 4.0, r)
    log.add(b, 2.0, 3.0, ia)            # grandchild
    log.add(b, 5.0, 9.0, r)
    log.add(build, 9.5, 9.75, r)        # a setup span nested in the run
    out = analyse(log)
    assert out.self_of("root") == pytest.approx(10 - 3 - 4 - 0.25)
    assert out.self_of("a") == pytest.approx(2.0)
    assert out.self_of("b") == pytest.approx(1.0 + 4.0)
    assert out.layer("sat") == pytest.approx(5.0)
    assert out.phase_s[SETUP] == pytest.approx(0.25)
    # self times of one phase add up to the time spent in that phase
    assert out.phase_s[RUN] + out.phase_s[SETUP] == pytest.approx(10.0)
    assert out.count("b") == 2
    assert out.unattributed() == pytest.approx(0.0)


def test_traced_run_adds_up_and_keeps_behaviour():
    workload = WORKLOADS["light_poisson"]
    inputs = small("light_poisson")
    plain = workload.rep(inputs, calibrate.Calibrator())
    log = SpanLog()
    tracer = Tracer(log).install()
    try:
        traced = workload.rep(inputs, calibrate.Calibrator(), log)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert traced.hashes == plain.hashes
    assert not traced.failures
    a = analyse(log)
    run_spans = sum(log.end[i] - log.start[i] for i in range(len(log))
                    if log.names[log.name[i]][0] == "Engine.run")
    assert a.phase_s[RUN] == pytest.approx(run_spans, rel=1e-9)
    layers = sum(s for (ph, _), s in a.layer_s.items() if ph == RUN)
    assert layers == pytest.approx(a.phase_s[RUN], rel=1e-9)
    assert a.count("WRTRingNetwork._sat_step") == 301
    # the wrappers are gone again
    from repro.sim.engine import Engine
    assert not hasattr(Engine.schedule_at, "__wrapped__")


def test_traced_counts_repeat_exactly():
    workload = WORKLOADS["lossy_adaptive"]
    inputs = small("lossy_adaptive", horizon=1500.0)
    rows = []
    for _ in range(2):
        log = SpanLog()
        tracer = Tracer(log).install()
        try:
            rep = workload.rep(inputs, calibrate.Calibrator(), log)
        finally:
            tracer.uninstall()
        row = run.traced_metrics(rep, log)
        rows.append({k: v for k, v in row.items()
                     if run.PER_LAYER_UNITS.get(k) == "count"})
    assert rows[0] == rows[1]
    assert rows[0]["phy.loss_draws"] > 0
    assert rows[0]["adaptive.updates"] > 0


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def test_uniform_slowdown_leaves_slot_rate_within_bound(monkeypatch):
    """A machine three times slower in every respect reads 3x in host
    seconds and the same in normalised ones."""
    workload = WORKLOADS["saturated_mixed"]
    inputs = small("saturated_mixed", horizon=600.0)

    def rates():
        reps = [workload.rep(inputs, calibrate.Calibrator())
                for _ in range(5)]
        return (sorted(r.slot_rate for r in reps)[2],
                sorted(r.slots / r.raw_run_s for r in reps)[2])

    rate, raw = rates()
    real = calibrate.clock

    def slow_clock():
        return 3.0 * real()

    monkeypatch.setattr(calibrate, "clock", slow_clock)
    monkeypatch.setattr(workloads, "clock", slow_clock)
    slow_rate, slow_raw = rates()
    assert slow_raw == pytest.approx(raw / 3, rel=0.2)
    assert slow_rate == pytest.approx(rate, rel=0.1)


def test_normalisation_needs_the_closing_tick():
    calib = calibrate.Calibrator()
    calib.tick()
    calib.add("run", 0.5)
    with pytest.raises(RuntimeError):
        calib.normalised("run")
    calib.tick()
    assert calib.normalised("run") > 0


# ----------------------------------------------------------------------
# output checks and inputs
# ----------------------------------------------------------------------
def test_wrong_reference_hash_makes_fail_ratio_nonzero(tmp_path):
    workload = WORKLOADS["saturated_mixed"]
    inputs = small("saturated_mixed")
    inputs.reference = ["0" * 64]
    result = run.measure(workload, inputs, 0.0, False, tmp_path)
    assert result["attempted"] == run.MIN_REPS
    assert result["failed"] == result["attempted"]
    assert "differs from the reference" in result["failures"][0]


def test_fuzz_cases_pass_their_oracles():
    workload = WORKLOADS["fuzz_replay"]
    inputs = workload.inputs(DEFAULT_SEED)
    inputs.data = inputs.data[:3]
    inputs.reference = inputs.reference[:3]
    rep = workload.rep(inputs, calibrate.Calibrator())
    assert rep.failures == []
    assert rep.attempted == 3 and rep.slots > 0


def test_frozen_inputs_match_the_recorded_digests():
    reference = json.loads(workloads.REFERENCE_FILE.read_text())
    assert reference["seed"] == DEFAULT_SEED
    for name, workload in WORKLOADS.items():
        assert workload.inputs(DEFAULT_SEED).digest == \
            reference["digests"][name], name


def test_other_seeds_change_only_the_seeds():
    a = WORKLOADS["fuzz_replay"].inputs(DEFAULT_SEED)
    b = WORKLOADS["fuzz_replay"].inputs(DEFAULT_SEED + 1)
    assert b.reference is None and a.digest != b.digest
    for x, y in zip(a.data, b.data):
        assert dict(x["scenario"], seed=0) == dict(y["scenario"], seed=0)
    assert WORKLOADS["fuzz_replay"].inputs(7).digest == \
        WORKLOADS["fuzz_replay"].inputs(7).digest


def test_theorem1_bound_from_data():
    scenario = {"n": 4, "l": 2, "k": 1, "t_ear": 6, "t_update": 3}
    assert workloads.theorem1_bound(scenario) == 4 + 2 * 4 * 3
    scenario.update(rap_enabled=True, quotas={"0": [1, 0, 1]})
    assert workloads.theorem1_bound(scenario) == 4 + 9 + 2 * 2


def test_no_source_tree_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "light_poisson",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
