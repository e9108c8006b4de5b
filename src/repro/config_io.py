"""Scenario (de)serialization: JSON-friendly dicts <-> Scenario objects.

Lets complete experiments be described as config files and run with
``python -m repro simulate --config scenario.json`` — the usual workflow of
simulation studies (parameter files under version control, results
regenerable from them).

The config dataclasses are the schema: one generic codec (:func:`to_dict`,
:func:`from_dict`) derives every dict form from the fields.  Field order is
key order; the annotation types each value (an ``int``-keyed ``Dict`` is
keyed by station id, a ``ServiceClass`` is its lower-case name, ``"be"``
for short, and a ``FaultSchedule`` its event list).  Three
``field(metadata=...)`` markers shape the output:

* ``sparse`` — emit the field only when it differs from its default, so an
  option added later leaves every older config's shape untouched;
* ``kinds`` — emit it only when the object's ``kind`` is one of these;
* ``row`` — encode its dataclass values as lists (a quota is
  ``[l, k1, k2]``).

Decoding raises ValueError naming any unknown, missing or malformed key.
Codecs are compiled once per type.  :func:`check_key` checks dotted sweep
keys against the same fields, whose ``flag``/``choices``/``help`` metadata
declare the command-line flags of :mod:`repro.cli`.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List

from repro.core.packet import ServiceClass
from repro.faults import FaultEvent, FaultSchedule
from repro.scenarios import Scenario

__all__ = ["to_dict", "from_dict", "check_key", "check_scenario_key",
           "scenario_to_dict", "scenario_from_dict",
           "load_scenario", "save_scenario"]

_SERVICE_NAMES = {c.name.lower(): c for c in ServiceClass}
_SERVICE_NAMES["be"] = ServiceClass.BEST_EFFORT

#: the retired tick-driver choice: still accepted (old configs, corpus
#: bundles and campaign points carry it) and ignored, since every run now
#: takes the one dataplane
_LEGACY_KERNELS = ("scalar", "batched")


def _expect(data: Any, kind, where: str) -> None:
    if not isinstance(data, kind):
        shape = "an object" if kind is dict else "a list"
        raise ValueError(f"{where} must be {shape}, got {data!r}")


def _service(name: Any, where: str) -> ServiceClass:
    try:
        return _SERVICE_NAMES[name.lower()]
    except (AttributeError, KeyError):
        raise ValueError(f"unknown {where} {name!r}; "
                         f"known: {sorted(_SERVICE_NAMES)}") from None


def _station(key: Any, where: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"{where} key {key!r} is not a station id") from None


@lru_cache(maxsize=None)
def _codec(tp, row: bool = False):
    """``(encode, decode)`` for values annotated ``tp``; None = as-is."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:                   # Optional[X]
        enc, dec = _codec(args[0], row)
        return (enc and (lambda v: None if v is None else enc(v)),
                dec and (lambda v, at: None if v is None else dec(v, at)))
    if tp is ServiceClass:
        return (lambda v: v.name.lower()), _service
    if tp is FaultSchedule:
        enc, dec = _codec(List[FaultEvent])
        return ((lambda v: enc(v.events)),
                lambda v, at: FaultSchedule(dec(v, at)) if v else None)
    if origin in (list, tuple):
        enc, dec = _codec(args[0], row)

        def decode_list(data, at):
            _expect(data, (list, tuple), at)
            return origin(data if dec is None else
                          [dec(x, f"{at}[{i}]") for i, x in enumerate(data)])
        return (list if enc is None else (lambda v: [enc(x) for x in v]),
                decode_list)
    if origin is dict:
        enc, dec = _codec(args[1], row)
        stations = args[0] is int      # an int-keyed table is per station

        def decode_map(data, at):
            _expect(data, dict, at)
            out = {}
            for k, v in data.items():
                where = f"{at} for station {k}" if stations else f"{at}.{k}"
                out[_station(k, at) if stations else k] = (
                    v if dec is None else dec(v, where))
            return out
        return ((lambda v: {str(k): x if enc is None else enc(x)
                            for k, x in v.items()}), decode_map)
    if not dataclasses.is_dataclass(tp):
        return None, None
    if not row:
        return _object_codec(tp)
    names = [f.name for f in dataclasses.fields(tp)]

    def decode_row(data, at):
        if not isinstance(data, (list, tuple)) or len(data) != len(names):
            raise ValueError(f"{at} must be [{', '.join(names)}], "
                             f"got {data!r}")
        return _construct(tp, data, at)
    return (lambda v: [getattr(v, name) for name in names]), decode_row


def _construct(cls, args, where: str):
    """``cls(**args)`` (``cls(*args)`` for a row), TypeError as ValueError."""
    try:
        return cls(**args) if isinstance(args, dict) else cls(*args)
    except TypeError as exc:        # e.g. a string where a number belongs
        raise ValueError(f"bad {where}: {exc}") from None


def _object_codec(cls):
    hints = typing.get_type_hints(cls)
    plan, decoders, required = [], {}, set()
    for f in dataclasses.fields(cls):
        enc, dec = _codec(hints[f.name], f.metadata.get("row", False))
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        if default is dataclasses.MISSING:
            required.add(f.name)
        plan.append((f.name, enc, f.metadata.get("sparse"), default,
                     f.metadata.get("kinds")))
        if dec is not None:
            decoders[f.name] = dec
    names = {name for name, *_ in plan}

    def encode(obj) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, enc, sparse, default, kinds in plan:
            value = getattr(obj, name)
            if not ((sparse and value == default)
                    or (kinds and obj.kind not in kinds)):
                out[name] = value if enc is None else enc(value)
        return out

    def decode(data, path):
        if isinstance(data, cls):       # already built (e.g. a parsed base)
            return data
        where = path or cls.__name__.lower()
        _expect(data, dict, where)
        if not (data.keys() <= names and required <= data.keys()):
            for problem, keys in (("unknown", data.keys() - names),
                                  ("missing", required - data.keys())):
                if keys:
                    raise ValueError(f"{problem} {where} keys: "
                                     f"{sorted(keys)}")
        kwargs = dict(data)
        for name, dec in decoders.items():
            if name in kwargs:
                kwargs[name] = dec(kwargs[name],
                                   f"{path}.{name}" if path else name)
        return _construct(cls, kwargs, where)
    return encode, decode


def to_dict(obj) -> Dict[str, Any]:
    """The JSON-serializable dict form of a config dataclass."""
    return _codec(type(obj))[0](obj)


def from_dict(cls, data: Any, path: str = ""):
    """A ``cls`` built from its dict form found at dotted ``path`` (empty
    for a whole config file)."""
    return _codec(cls)[1](data, path)


def check_key(cls, key: str, leaf: bool = False):
    """The field dotted ``key`` names in ``cls``'s dict form and its type
    (``Optional`` stripped); ValueError if there is none.  Keys below a
    dict- or list-valued field (``quotas.<sid>``, ``faults``) are free
    unless ``leaf`` is set."""
    name, _, rest = key.partition(".")
    f = {f.name: f for f in dataclasses.fields(cls)}.get(name)
    tp = f and typing.get_type_hints(cls)[name]
    if typing.get_origin(tp) is typing.Union:
        tp = typing.get_args(tp)[0]
    if rest and dataclasses.is_dataclass(tp):
        return check_key(tp, rest, leaf)
    if f is None or rest and (leaf or not (
            typing.get_origin(tp) in (list, tuple, dict)
            or tp in (dict, FaultSchedule))):
        raise ValueError(f"{cls.__name__} has no key {key!r}")
    return f, tp


def check_scenario_key(key: str) -> None:
    """:func:`check_key` for the scenario dict form (legacy key included)."""
    if key != "kernel":
        check_key(Scenario, key)


# ----------------------------------------------------------------------
def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """A JSON-serializable description of ``scenario``."""
    return to_dict(scenario)


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Build a Scenario from the dict shape :func:`scenario_to_dict` emits.

    Malformed input raises ValueError naming the offending key or station.
    """
    if isinstance(data, dict) and "kernel" in data:
        data = dict(data)
        kernel = data.pop("kernel")
        if kernel not in _LEGACY_KERNELS:
            raise ValueError(f"unknown kernel {kernel!r} "
                             f"(expected one of {list(_LEGACY_KERNELS)})")
    return from_dict(Scenario, data)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2))


def load_scenario(path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text()))
