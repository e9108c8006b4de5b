"""The four pinned workloads: their inputs, one repetition each, and the
output checks that do not trust the code under test.

Inputs are data.  Every workload reads its frozen input from ``inputs/``
(a ``config_io`` scenario dict, or a list of ``FuzzCase`` dicts), so a new
fuzz dimension cannot change it, and a new scenario default shows up as a
round-trip failure or a reference-hash mismatch.  For :data:`DEFAULT_SEED`
the input is used as frozen; another seed regenerates the random inputs by
replacing the scenario seed (of every case, for ``fuzz_replay``), keeping
the shape of the work.  The run prints a digest of whatever it used.

A repetition runs the path ``python -m repro simulate`` / ``fuzz`` runs —
``build_scenario``, ``Engine.run`` to the horizon, then ``summary()`` and
``hash_trace`` (plus the registry snapshot where metrics are attached) —
and times the three phases from outside.  Reference-kernel timings are
interleaved with the run every :data:`CHUNK_SLOTS` slots (or between fuzz
cases) so the phases can be normalised (see :mod:`calibrate`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from calibrate import Calibrator, clock
from spans import REPORT, SpanLog

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Inputs", "Rep", "Unsupported",
           "InputError", "digest_of", "trace_retained_mb",
           "theorem1_bound", "check_conservation", "check_theorem1",
           "check_reference"]

DEFAULT_SEED = 1
INPUTS_DIR = Path(__file__).resolve().parent / "inputs"
REFERENCE_FILE = INPUTS_DIR / "reference.json"
#: slots between two reference-kernel timings during a simulate run
CHUNK_SLOTS = 500


class Unsupported(Exception):
    """The source tree cannot express this workload (an older commit)."""


class InputError(Exception):
    """A frozen input no longer round-trips: the workload would change."""


@dataclass
class Inputs:
    seed: int
    data: Any
    digest: str
    frozen: bool
    #: trace hashes recorded at the reference commit (default seed only)
    reference: Optional[Any] = None


@dataclass
class Rep:
    """One repetition's measurements (times in normalised seconds)."""

    setup_s: float
    run_s: float
    report_s: float
    raw_run_s: float
    slots: float
    #: wall seconds per normalised second during this repetition
    wall_second: float
    failures: List[str]
    #: runs checked (scenario instances, or fuzz cases) and how many failed
    attempted: int
    failed: int
    #: the trace hash(es) — identical across repetitions of one input
    hashes: Any
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: exact work counts of a traced repetition
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def slot_rate(self) -> float:
        return self.slots / self.run_s


def digest_of(data: Any) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def derived_seed(name: str, seed: int, index: int) -> int:
    """The scenario seed of run ``index`` of workload ``name`` under the
    benchmark seed ``seed``."""
    blob = hashlib.sha256(f"{name}:{seed}:{index}".encode()).digest()
    return int.from_bytes(blob[:6], "big")


def _load_json(path: Path) -> Any:
    return json.loads(path.read_text())


def _reference(name: str, seed: int) -> Optional[Any]:
    if seed != DEFAULT_SEED or not REFERENCE_FILE.exists():
        return None
    return _load_json(REFERENCE_FILE)["hashes"].get(name)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def theorem1_bound(scenario: Dict[str, Any]) -> float:
    """Theorem 1, from the scenario data alone:
    ``S + T_rap + 2 * sum_j (l_j + k_j)`` with one slot per SAT hop."""
    n = scenario["n"]
    if scenario.get("quotas"):
        quota_sum = sum(sum(q) for q in scenario["quotas"].values())
    else:
        quota_sum = n * (scenario["l"] + scenario["k"])
    t_rap = (scenario["t_ear"] + scenario["t_update"]
             if scenario.get("rap_enabled") else 0)
    return n + t_rap + 2 * quota_sum


def check_theorem1(scenario: Dict[str, Any], trace) -> List[str]:
    samples = [ev.fields["rotation"] for ev in trace.select("sat.rotation")]
    if not samples:
        return ["theorem1: no SAT rotation was traced"]
    bound = theorem1_bound(scenario)
    worst = max(samples)
    if worst >= bound:
        return [f"theorem1: worst rotation {worst} >= bound {bound}"]
    return []


def check_conservation(built) -> List[str]:
    """generated - rejected = delivered + lost + orphaned + still buffered."""
    net, wl = built.network, built.workload
    buffered = sum(len(st.transit) + len(st.rt_queue) + len(st.as_queue)
                   + len(st.be_queue) for st in net.stations.values())
    m = net.metrics
    offered = wl.generated() - wl.rejected_at_source
    accounted = m.total_delivered + m.lost + m.orphaned + buffered
    if offered != accounted:
        return [f"conservation: {offered} packets offered but "
                f"{accounted} accounted for ({m.total_delivered} delivered, "
                f"{m.lost} lost, {m.orphaned} orphaned, {buffered} buffered)"]
    return []


def check_reference(reference: Optional[str], digest: str,
                    label: str = "trace") -> List[str]:
    if reference is None or reference == digest:
        return []
    return [f"{label} hash {digest[:16]} differs from the reference "
            f"{reference[:16]}"]


def trace_retained_mb(trace) -> float:
    """Bytes held by a trace's records (record, field dict and values;
    the per-category index shares them), in MB.  Deterministic."""
    size = sys.getsizeof(trace.events)
    for ev in trace.events:
        size += sys.getsizeof(ev) + sys.getsizeof(ev.fields)
        for value in ev.fields.values():
            size += sys.getsizeof(value)
    return size / 1e6


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class SimulateWorkload:
    """Scenario runs to the horizon, as ``simulate`` runs them.

    A repetition runs ``instances`` independent instances of the frozen
    scenario; instance 0 uses the run's seed, the others seeds derived from
    it.  More than one instance averages out how much a lossy run's work
    (how long the ring is down or shrinking, how long its trace grows)
    depends on the seed.
    """

    def __init__(self, name: str, registry: bool, clean: bool,
                 instances: int = 1):
        self.name = name
        self.registry = registry      # attach a MetricsRegistry (--metrics)
        self.clean = clean            # Theorem 1 applies (no loss, no faults)
        self.instances = instances

    def inputs(self, seed: int) -> Inputs:
        from repro import config_io

        frozen = _load_json(INPUTS_DIR / f"{self.name}.json")
        runs = [dict(frozen, seed=seed if j == 0 else
                     derived_seed(self.name, seed, j))
                for j in range(self.instances)]
        for data in runs:
            try:
                again = config_io.scenario_to_dict(
                    config_io.scenario_from_dict(data))
            except (TypeError, ValueError) as exc:
                raise Unsupported(f"{self.name}: {exc}") from None
            if again != data:
                keys = sorted(k for k in set(data) | set(again)
                              if data.get(k) != again.get(k))
                raise InputError(f"{self.name}: the frozen scenario no longer "
                                 f"round-trips through config_io; differing "
                                 f"keys: {keys}")
        return Inputs(seed=seed, data=runs, digest=digest_of(runs),
                      frozen=seed == DEFAULT_SEED,
                      reference=_reference(self.name, seed))

    def rep(self, inputs: Inputs, calib: Calibrator,
            log: Optional[SpanLog] = None) -> Rep:
        failures: List[str] = []
        failed = 0
        hashes: List[str] = []
        slots = 0.0
        outputs: Dict[str, Any] = {}
        counts: Dict[str, Any] = {}
        for j, data in enumerate(inputs.data):
            reference = (inputs.reference[j] if inputs.reference is not None
                         else None)
            found, digest, out, cnt = self._instance(data, reference, calib,
                                                     log)
            # each instance stands for a separate simulate process: free
            # its stack (a cyclic graph) before the next one is built
            gc.collect()
            if found:
                failed += 1
                failures += found
            hashes.append(digest)
            slots += data["horizon"]
            for key, value in out.items():
                outputs.setdefault(key, []).append(value)
            for key, value in cnt.items():
                counts[key] = (max(counts.get(key, 0.0), value)
                               if key == "trace.retained_mb"
                               else counts.get(key, 0) + value)
        return Rep(setup_s=calib.normalised("setup"),
                   run_s=calib.normalised("run"),
                   report_s=calib.normalised("report"),
                   raw_run_s=calib.host("run"), slots=slots,
                   wall_second=calib.wall_second, failures=failures,
                   attempted=len(inputs.data), failed=failed, hashes=hashes,
                   outputs=outputs, counts=counts)

    def _instance(self, data: Dict[str, Any], reference: Optional[str],
                  calib: Calibrator, log: Optional[SpanLog]):
        from repro import config_io, scenarios
        from repro.fuzz import runner
        from repro.obs import (MetricsRegistry, Profiler,
                               attach_network_metrics, attach_run_profiling)

        scenario = config_io.scenario_from_dict(data)
        horizon = scenario.horizon
        calib.tick()
        start = clock()
        built = scenarios.build_scenario(scenario)
        calib.add("setup", clock() - start)
        attach_run_profiling(built.engine, Profiler())
        registry = subscriber = None
        if self.registry:
            registry = MetricsRegistry()
            subscriber = attach_network_metrics(built.network, registry)

        t = built.engine.now
        while t < horizon:
            t = min(t + CHUNK_SLOTS, horizon)
            calib.tick()
            start = clock()
            built.engine.run(until=t)
            calib.add("run", clock() - start)
        calib.tick()

        def report():
            summary = built.summary()
            digest = runner.hash_trace(built.trace)
            if registry is not None:
                subscriber.flush()
                registry.snapshot()
            return summary, digest

        if log is not None:
            report = log.wrap(report, log.name_id("bench.report", "report",
                                                  REPORT))
        start = clock()
        summary, digest = report()
        calib.add("report", clock() - start)
        calib.tick()

        failures = check_conservation(built)
        if self.clean:
            failures += check_theorem1(data, built.trace)
            if not summary.get("bound_holds", False):
                failures.append("summary: bound_holds is not true")
        failures += check_reference(reference, digest)
        outputs = {key: summary[key] for key in
                   ("delivered", "lost", "orphaned", "recoveries", "rebuilds")}
        outputs["members"] = len(summary["members"])
        counts = {}
        if log is not None:
            net = built.network
            counts = {
                "engine.events": built.engine.events_executed,
                "recovery.episodes": len(net.recovery.records),
                "recovery.rebuilds": net.recovery.ring_rebuilds,
                "traffic.generated": built.workload.generated(),
                "trace.records": len(built.trace.events),
                "trace.retained_mb": trace_retained_mb(built.trace),
            }
        return failures, digest, outputs, counts


class FuzzWorkload:
    """A frozen list of fuzz cases, each through ``fuzz.runner.run_case``
    (strict invariant checker, oracle battery, ``hash_trace``)."""

    name = "fuzz_replay"

    def inputs(self, seed: int) -> Inputs:
        from repro import config_io
        from repro.fuzz.generate import FuzzCase

        cases = _load_json(INPUTS_DIR / f"{self.name}.json")["cases"]
        if seed != DEFAULT_SEED:
            # same case shapes (ring, traffic, faults, drive plan), fresh
            # random streams: the pass keeps its mix of work across seeds
            cases = [dict(case, seed=derived_seed(self.name, seed, i),
                          scenario=dict(case["scenario"],
                                        seed=derived_seed(self.name, seed, i)))
                     for i, case in enumerate(cases)]
        for data in cases:
            if FuzzCase.from_dict(data).to_dict() != data:
                raise InputError(f"{self.name}: case {data.get('index')} "
                                 f"no longer round-trips through FuzzCase")
            try:
                config_io.scenario_from_dict(data["scenario"])
            except (TypeError, ValueError) as exc:
                raise Unsupported(f"{self.name}: {exc}") from None
        return Inputs(seed=seed, data=cases, digest=digest_of(cases),
                      frozen=seed == DEFAULT_SEED,
                      reference=_reference(self.name, seed))

    def rep(self, inputs: Inputs, calib: Calibrator,
            log: Optional[SpanLog] = None) -> Rep:
        from repro.fuzz import runner
        from repro.fuzz.generate import FuzzCase

        timed = {"build": 0.0, "hash": 0.0}
        build_scenario, hash_trace = runner.build_scenario, runner.hash_trace

        def timed_build(scenario):
            start = clock()
            try:
                return build_scenario(scenario)
            finally:
                timed["build"] += clock() - start

        def timed_hash(trace):
            start = clock()
            try:
                return hash_trace(trace)
            finally:
                timed["hash"] += clock() - start

        failures: List[str] = []
        failed_cases = set()
        hashes: List[str] = []
        slots = 0.0
        counts = dict.fromkeys(("engine.events", "recovery.episodes",
                                "recovery.rebuilds", "traffic.generated",
                                "trace.records"), 0)
        counts["trace.retained_mb"] = 0.0
        runner.build_scenario, runner.hash_trace = timed_build, timed_hash
        try:
            for i, data in enumerate(inputs.data):
                case = FuzzCase.from_dict(data)
                timed["build"] = timed["hash"] = 0.0
                calib.tick()
                start = clock()
                result = runner.run_case(case)
                total = clock() - start
                calib.add("setup", timed["build"])
                calib.add("report", timed["hash"])
                calib.add("run", total - timed["build"] - timed["hash"])
                slots += result.end_time
                hashes.append(result.trace_hash)
                found = [f"case {i}: {f.kind}: {f.message}"
                         for f in result.failures]
                if inputs.reference is not None:
                    found += check_reference(inputs.reference[i],
                                             result.trace_hash,
                                             f"case {i} trace")
                if found:
                    failed_cases.add(i)
                    failures += found
                if log is not None:
                    trace = result.built.trace
                    counts["engine.events"] += result.events_executed
                    counts["recovery.episodes"] += result.stats["recoveries"]
                    counts["recovery.rebuilds"] += result.stats["rebuilds"]
                    counts["traffic.generated"] += (
                        result.built.workload.generated())
                    counts["trace.records"] += len(trace.events)
                    counts["trace.retained_mb"] = max(
                        counts["trace.retained_mb"], trace_retained_mb(trace))
                    del trace
                del result
            calib.tick()
        finally:
            runner.build_scenario, runner.hash_trace = build_scenario, hash_trace
        return Rep(setup_s=calib.normalised("setup"),
                   run_s=calib.normalised("run"),
                   report_s=calib.normalised("report"),
                   raw_run_s=calib.host("run"), slots=slots,
                   wall_second=calib.wall_second, failures=failures,
                   attempted=len(inputs.data), failed=len(failed_cases),
                   hashes=hashes, outputs={"cases": len(inputs.data)},
                   counts=counts if log is not None else {})


#: why each workload was chosen: README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    SimulateWorkload("light_poisson", registry=True, clean=True),
    SimulateWorkload("saturated_mixed", registry=False, clean=True),
    SimulateWorkload("lossy_adaptive", registry=False, clean=False,
                     instances=2),
    FuzzWorkload(),
)}
