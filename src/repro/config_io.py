"""Scenario (de)serialization: JSON-friendly dicts <-> Scenario objects.

Lets complete experiments be described as config files and run with
``python -m repro simulate --config scenario.json`` — the usual workflow of
simulation studies (parameter files under version control, results
regenerable from them).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping

from repro.core.packet import ServiceClass
from repro.core.quotas import QuotaConfig
from repro.faults import FaultEvent, FaultSchedule
from repro.phy.geometry import Arena
from repro.phy.impairments import ImpairmentSpec
from repro.qoe.sessions import CallsSpec
from repro.scenarios import MobilitySpec, Scenario, TrafficMix

__all__ = ["scenario_to_dict", "scenario_from_dict",
           "load_scenario", "save_scenario"]

_SERVICE_NAMES = {c.name.lower(): c for c in ServiceClass}


def _service_to_name(service: ServiceClass) -> str:
    return service.name.lower()


def _service_from_name(name: str) -> ServiceClass:
    try:
        return _SERVICE_NAMES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown service class {name!r}; "
                         f"known: {sorted(_SERVICE_NAMES)}") from None


# ----------------------------------------------------------------------
def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """A JSON-serializable description of ``scenario``."""
    out: Dict[str, Any] = {
        "n": scenario.n,
        "placement": scenario.placement,
        "radius": scenario.radius,
        "range_margin": scenario.range_margin,
        "arena": {"width": scenario.arena.width,
                  "height": scenario.arena.height},
        "l": scenario.l,
        "k": scenario.k,
        "rap_enabled": scenario.rap_enabled,
        "t_ear": scenario.t_ear,
        "t_update": scenario.t_update,
        "use_channel": scenario.use_channel,
        "validate_phy": scenario.validate_phy,
        "check_invariants": scenario.check_invariants,
        "horizon": scenario.horizon,
        "seed": scenario.seed,
        "traffic": {
            "kind": scenario.traffic.kind,
            "rate": scenario.traffic.rate,
            "period": scenario.traffic.period,
            "service": _service_to_name(scenario.traffic.service),
            "deadline": scenario.traffic.deadline,
            "neighbours_only": scenario.traffic.neighbours_only,
        },
    }
    if scenario.traffic.kind in ("onoff", "voice"):
        # the talkspurt-shape keys matter only to these kinds; emitted
        # conditionally so every other config keeps its historical shape
        out["traffic"].update(peak_rate=scenario.traffic.peak_rate,
                              mean_on=scenario.traffic.mean_on,
                              mean_off=scenario.traffic.mean_off)
    if scenario.traffic.kind == "prefill":
        out["traffic"]["burst"] = scenario.traffic.burst
    if scenario.adaptive_timers:
        out["adaptive_timers"] = True
    if scenario.calls is not None:
        out["calls"] = scenario.calls.to_dict()
    if scenario.quotas is not None:
        out["quotas"] = {str(sid): [q.l, q.k1, q.k2]
                         for sid, q in scenario.quotas.items()}
    if scenario.mobility is not None:
        out["mobility"] = {
            "wander_radius": scenario.mobility.wander_radius,
            "speed": scenario.mobility.speed,
            "update_every": scenario.mobility.update_every,
        }
    if scenario.faults is not None:
        out["faults"] = [
            {"time": e.time, "kind": e.kind, "station": e.station,
             **({"params": e.params} if e.params else {})}
            for e in scenario.faults.events]
    if scenario.impairments is not None:
        out["impairments"] = scenario.impairments.to_dict()
    return out


#: top-level keys copied verbatim into the Scenario constructor
_PLAIN_KEYS = ("n", "placement", "radius", "range_margin", "l", "k",
               "rap_enabled", "t_ear", "t_update", "use_channel",
               "validate_phy", "check_invariants", "horizon", "seed",
               "adaptive_timers")
#: keys parsed section by section below
_SECTION_KEYS = ("arena", "traffic", "quotas", "mobility", "faults",
                 "impairments", "calls")
#: the retired tick-driver choice: still accepted (old configs, corpus
#: bundles and campaign points carry it) and ignored, since every run now
#: takes the one dataplane
_LEGACY_KERNELS = ("scalar", "batched")


def _section(cls, name: str, data: Mapping[str, Any]):
    """``cls(**data)`` for a nested config section, rejecting keys the
    dataclass does not have with a ValueError naming them."""
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    return cls(**data)


def _quota(sid: str, vals: Any) -> QuotaConfig:
    if not isinstance(vals, (list, tuple)) or len(vals) != 3:
        raise ValueError(f"quotas for station {sid} must be [l, k1, k2], "
                         f"got {vals!r}")
    return QuotaConfig(l=vals[0], k1=vals[1], k2=vals[2])


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Build a Scenario from the dict shape :func:`scenario_to_dict` emits.

    Malformed input raises ValueError naming the offending key or station.
    """
    unknown = set(data) - {*_PLAIN_KEYS, *_SECTION_KEYS, "kernel"}
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    if data.get("kernel", "scalar") not in _LEGACY_KERNELS:
        raise ValueError(f"unknown kernel {data['kernel']!r} "
                         f"(expected one of {list(_LEGACY_KERNELS)})")
    kwargs: Dict[str, Any] = {key: data[key] for key in _PLAIN_KEYS
                              if key in data}

    if "arena" in data:
        kwargs["arena"] = _section(Arena, "arena", data["arena"])

    if "traffic" in data:
        traffic = dict(data["traffic"])
        if "service" in traffic:
            traffic["service"] = _service_from_name(traffic["service"])
        kwargs["traffic"] = _section(TrafficMix, "traffic", traffic)

    if "quotas" in data and data["quotas"] is not None:
        kwargs["quotas"] = {int(sid): _quota(sid, vals)
                            for sid, vals in data["quotas"].items()}

    if "mobility" in data and data["mobility"] is not None:
        kwargs["mobility"] = _section(MobilitySpec, "mobility",
                                      data["mobility"])

    if "faults" in data and data["faults"]:
        events = []
        for entry in data["faults"]:
            events.append(FaultEvent(time=entry["time"], kind=entry["kind"],
                                     station=entry.get("station"),
                                     params=entry.get("params", {})))
        kwargs["faults"] = FaultSchedule(events)

    if "impairments" in data and data["impairments"] is not None:
        kwargs["impairments"] = ImpairmentSpec.from_dict(data["impairments"])

    if "calls" in data and data["calls"] is not None:
        kwargs["calls"] = CallsSpec.from_dict(data["calls"])

    return Scenario(**kwargs)


# ----------------------------------------------------------------------
def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2))


def load_scenario(path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text()))
