"""The repository's benchmark of record: WRT-Ring slot rate, set-up time,
report time and memory on four pinned workloads.

    python3 wrtbench/run.py --workload light_poisson --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``
(or from ``--src``, so two commits can be measured with identical benchmark
code).  It repeats the workload for ``--seconds`` seconds and reports
medians over the repetitions.  ``--trace 0`` prints the end-to-end metrics
of untraced repetitions; ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics (see ``README.md``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit codes: 0 measured (the JSON line says whether every output check
passed); 1 a frozen input no longer round-trips; 2 no usable source tree;
3 the source tree cannot express this workload (skipped, nothing printed
as a result).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402
from spans import (REPORT, RUN, SETUP, SUBSCRIBER, NAMED_LAYERS,  # noqa: E402
                   SpanLog, Tracer, analyse)
from workloads import (DEFAULT_SEED, WORKLOADS, InputError,  # noqa: E402
                       Unsupported)

#: repetitions measured at least, however short ``--seconds`` is
MIN_REPS = 3

#: per-layer metrics: name -> unit (the ``per_layer`` list of BENCHMARK.json)
PER_LAYER_UNITS = {
    "build.graph_s": "s", "build.network_s": "s", "build.traffic_s": "s",
    "engine.events": "count", "engine.pushes": "count",
    "engine.cancels": "count", "engine.self_s": "s",
    "ring.self_s": "s",
    "dataplane.visits": "count", "dataplane.decisions": "count",
    "dataplane.useful_ratio": "ratio", "dataplane.decide_s": "s",
    "dataplane.apply_s": "s",
    "sat.steps": "count", "sat.handoffs": "count", "sat.step_s": "s",
    "timers.restarts": "count", "timers.expiries": "count",
    "recovery.episodes": "count", "recovery.rebuilds": "count",
    "recovery.self_s": "s",
    "adaptive.updates": "count", "adaptive.self_s": "s",
    "phy.loss_draws": "count", "phy.self_s": "s",
    "traffic.generated": "count", "traffic.self_s": "s",
    "bus.callbacks": "count", "bus.rebinds": "count", "bus.self_s": "s",
    "netmetrics.self_s": "s",
    "obs.tick_calls": "count", "obs.self_s": "s",
    "trace.records": "count", "trace.self_s": "s", "trace.retained_mb": "MB",
    "report.summary_s": "s", "report.hash_s": "s",
    "invariants.calls": "count", "invariants.self_s": "s",
    "oracles.self_s": "s",
    "tracing.spans": "count", "tracing.run_s": "s",
    "tracing.unattributed_s": "s", "tracing.rate_ratio": "ratio",
}

END_TO_END_UNITS = {"slot_rate": "slots/s", "setup_s": "s", "report_s": "s",
                    "peak_mem_mb": "MB", "pass_ratio": "ratio"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.5g}  median {q2:.5g}  q3 {q3:.5g}  n={len(values)}"


# ----------------------------------------------------------------------
def traced_metrics(rep, log: SpanLog) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (times normalised by
    the repetition's own calibration, counts exact)."""
    a = analyse(log)
    second = rep.wall_second
    counts = {name: cell[0] for name, cell in log.counts.items()}
    norm = {
        "build.graph_s": a.layer("graph", SETUP),
        "build.network_s": a.layer("network", SETUP),
        "build.traffic_s": a.layer("build_traffic", SETUP),
        "dataplane.decide_s": a.self_of("WRTRingNetwork._decide_slot"),
        "dataplane.apply_s": a.self_of("WRTRingNetwork._apply_slot"),
        "sat.step_s": a.self_of("WRTRingNetwork._sat_step"),
        "report.summary_s": (a.self_of("ScenarioResult.summary", REPORT)
                             + a.self_of("ScenarioResult.summary", RUN)),
        "report.hash_s": a.self_of("hash_trace", REPORT),
        "tracing.run_s": a.phase_s.get(RUN, 0.0),
        "tracing.unattributed_s": a.unattributed(RUN),
    }
    for layer in ("engine", "ring", "recovery", "adaptive", "phy", "traffic",
                  "bus", "netmetrics", "obs", "trace", "invariants",
                  "oracles"):
        norm[f"{layer}.self_s"] = a.layer(layer)
    out = {k: v / second for k, v in norm.items()}
    visits = counts.get("visits", 0)
    out.update(rep.counts)
    out.update({
        "engine.pushes": a.count("Engine.schedule_at", RUN),
        "engine.cancels": a.count("EventHandle.cancel", RUN),
        "dataplane.visits": visits,
        "dataplane.decisions": counts.get("decisions", 0),
        "dataplane.useful_ratio": (counts.get("useful", 0) / visits
                                   if visits else 0.0),
        "sat.steps": a.count("WRTRingNetwork._sat_step", RUN),
        "sat.handoffs": counts.get("handoffs", 0),
        "timers.restarts": a.count("RecoveryManager.restart_timer", RUN),
        "timers.expiries": a.count("RecoveryManager._on_timer_expired", RUN),
        "adaptive.updates": a.count("RttEstimator.observe", RUN),
        "phy.loss_draws": a.count("ChannelImpairments.loss", RUN),
        "bus.callbacks": sum(n for (_, name), n in a.name_n.items()
                             if name.startswith(SUBSCRIBER)),
        "bus.rebinds": counts.get("rebinds", 0),
        "obs.tick_calls": a.count(
            SUBSCRIBER + "NetworkMetricsSubscriber._on_tick"),
        "invariants.calls": a.count(
            SUBSCRIBER + "RingInvariantChecker._on_tick_event"),
        "tracing.spans": len(log),
    })
    out["_layers"] = {layer: s / second for (ph, layer), s in a.layer_s.items()
                      if ph == RUN}
    return out


def _print_breakdown(layers: Dict[str, float], run_s: float) -> None:
    named = {k: v for k, v in layers.items() if k in NAMED_LAYERS}
    other = {k: v for k, v in layers.items() if k not in NAMED_LAYERS}
    print(f"  traced run phase {run_s:.5f} s (normalised), by layer self time:")
    for layer, s in sorted(named.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:14s} {s:9.5f} s  {100 * s / run_s:5.1f}%")
    rest = sum(other.values())
    detail = ", ".join(f"{k} {v:.4f}" for k, v in
                       sorted(other.items(), key=lambda kv: -kv[1])[:4])
    print(f"    {'unattributed':14s} {rest:9.5f} s  {100 * rest / run_s:5.1f}%"
          + (f"  ({detail})" if detail else ""))
    total = sum(named.values()) + rest
    print(f"    {'sum':14s} {total:9.5f} s  = run phase {run_s:.5f} s")


def measure(workload, inputs, seconds: float, trace: bool,
            spans_out: Path) -> Dict[str, object]:
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    layer_rows: List[Dict[str, float]] = []
    failures: List[str] = []
    peak_mb = None
    attempted = failed = 0
    first_hash = None
    counts_ref = None
    while True:
        tracing = trace and len(plain) > len(traced)
        calib = Calibrator()
        log = SpanLog() if tracing else None
        tracer = Tracer(log).install() if tracing else None
        if peak_mb is None:
            gc.collect()
            rss_before = _peak_rss_mb()
        try:
            rep = workload.rep(inputs, calib, log)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if peak_mb is None:
            peak_mb = _peak_rss_mb() - rss_before
        rep_failures = list(rep.failures)
        if first_hash is None:
            first_hash = rep.hashes
        elif rep.hashes != first_hash:
            rep_failures.append("trace hash differs between repetitions"
                                + (" (traced vs untraced)" if tracing else ""))
        if tracing:
            row = traced_metrics(rep, log)
            exact = {k: v for k, v in row.items()
                     if PER_LAYER_UNITS.get(k) in ("count", "MB", "ratio")
                     and k != "tracing.rate_ratio"}
            if counts_ref is None:
                counts_ref = exact
                if tracer.missing:
                    print(f"  entry points missing from this tree: "
                          f"{', '.join(tracer.missing)}")
                spans_out.mkdir(parents=True, exist_ok=True)
                path = spans_out / f"{workload.name}-seed{inputs.seed}.spans.csv"
                print(f"  wrote {log.write_csv(path)} spans of the first traced "
                      f"repetition to {path}")
            elif exact != counts_ref:
                diff = sorted(k for k in exact if exact[k] != counts_ref.get(k))
                rep_failures.append(f"traced counts not exact: {diff}")
            layer_rows.append(row)
            traced.append(rep)
        else:
            plain.append(rep)
        attempted += rep.attempted
        if rep_failures:
            failures.append("; ".join(rep_failures[:3]))
            failed += max(rep.failed, 1)
        del rep, log
        gc.collect()
        enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
        if enough and time.perf_counter() >= deadline:
            break
    return {"plain": plain, "traced": traced, "layers": layer_rows,
            "failures": failures, "peak_mb": peak_mb, "attempted": attempted,
            "failed": min(failed, attempted)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="WRT-Ring benchmark of record (see wrtbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default="src",
                        help="source tree holding the repro package "
                             "(default: src of the current directory)")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from the root of a "
              f"checkout or pass --src", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import repro from {src}: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        inputs = workload.inputs(args.seed)
    except Unsupported as exc:
        print(f"skipped: {exc}")
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    origin = "frozen" if inputs.frozen else "regenerated"
    print(f"{workload.name}: seed {inputs.seed}, {origin} inputs, digest "
          f"{inputs.digest}; source {src}")

    result = measure(workload, inputs, args.seconds, bool(args.trace),
                     HERE / "out")
    plain, traced = result["plain"], result["traced"]
    attempted, failed = result["attempted"], result["failed"]
    for line in result["failures"][:5]:
        print(f"  FAILED: {line}")
    if plain:
        print(f"  outputs: {plain[0].outputs}")

    rates = [r.slot_rate for r in plain]
    raw = [r.slots / r.raw_run_s for r in plain]
    print(f"  slot_rate   {_quartiles(rates)}  slots/s (normalised)")
    print(f"  raw rate    {_quartiles(raw)}  slots/s (host CPU seconds, for reading only)")
    if not args.trace:
        metrics = {
            "slot_rate": statistics.median(rates),
            "setup_s": statistics.median([r.setup_s for r in plain]),
            "report_s": statistics.median([r.report_s for r in plain]),
            "peak_mem_mb": result["peak_mb"],
            "pass_ratio": (attempted - failed) / attempted,
        }
        print(f"  setup_s     {_quartiles([r.setup_s for r in plain])}")
        print(f"  report_s    {_quartiles([r.report_s for r in plain])}")
        units = END_TO_END_UNITS
    else:
        rows = result["layers"]
        metrics = {}
        for name in PER_LAYER_UNITS:
            if name == "tracing.rate_ratio":
                continue
            values = [row[name] for row in rows]
            metrics[name] = (values[0] if PER_LAYER_UNITS[name] != "s"
                             else statistics.median(values))
        traced_rate = statistics.median([r.slot_rate for r in traced])
        metrics["tracing.rate_ratio"] = traced_rate / statistics.median(rates)
        print(f"  traced slot_rate {_quartiles([r.slot_rate for r in traced])}"
              f"; traced/untraced = {metrics['tracing.rate_ratio']:.3f}")
        mid = min(rows, key=lambda row: abs(
            row["tracing.run_s"] - metrics["tracing.run_s"]))
        _print_breakdown(mid["_layers"], mid["tracing.run_s"])
        units = PER_LAYER_UNITS
    for name, value in metrics.items():
        print(f"  {name:24s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
