"""Structured event tracing.

Protocol debugging and several experiments (e.g. measuring SAT rotation
samples, counting link crossings per control-signal round, timing recovery
procedures) need a cheap, queryable record of what happened and when.

:class:`TraceRecorder` stores :class:`TraceEvent` records, indexed by
category at record time so ``select``/``times``/``last``/``count`` cost
O(matches) instead of a full scan.  ``recorder.attach(bus)`` subscribes one
*writer* per enabled traced event type, which appends the record the type
declares (:class:`~repro.events.types.TraceSpec`).  The category switches
(``enable``, ``disable``, ``enable_only``) re-sync those writers on every
attached bus: a disabled category costs its emit sites nothing, and nothing
is filtered at record time.  Opt-in categories (per-tick slot occupancy,
per-visit SAT arrivals; only the timeline needs them) stay off until
enabled by name.
"""

from __future__ import annotations

import json
import json.encoder
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.events.types import EVENT_TYPES

__all__ = ["TraceEvent", "TraceRecorder", "chunk_encoder"]

#: every event type that declares a trace record, in schema order
_TRACED = tuple(cls for cls in EVENT_TYPES if cls.trace is not None)
#: categories that are recorded only when explicitly enabled
_OPT_IN = frozenset(cls.trace.category for cls in _TRACED if cls.trace.opt_in)


class TraceEvent:
    """One recorded fact: ``time``, ``category`` and free-form ``fields``."""

    __slots__ = ("time", "category", "fields")

    def __init__(self, time: float, category: str,
                 fields: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.category = category
        self.fields = {} if fields is None else fields

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.time, self.category, self.fields)
                == (other.time, other.category, other.fields))

    __hash__ = None  # type: ignore[assignment]  # ``fields`` is a dict

    def __repr__(self) -> str:
        return (f"TraceEvent(time={self.time!r}, category={self.category!r}, "
                f"fields={self.fields!r})")


def chunk_encoder(**dumps_kwargs: Any) -> Callable[[Any], Sequence[str]]:
    """``json.dumps(obj, **dumps_kwargs)`` with the encoder built once.

    Returns ``encode(obj)``: a sequence of strings whose concatenation is
    exactly ``json.dumps(obj, **dumps_kwargs)``.  ``json.dumps`` with any
    non-default argument builds a new encoder per call, which dominates
    the cost of encoding many small trace records; this builds the C
    encoder once, with the arguments ``JSONEncoder.iterencode`` passes it,
    and falls back to one reused ``JSONEncoder(...).encode`` when the C
    accelerator is missing.  Use one encoder per batch and drop it if an
    encode raises: like ``json.dumps``'s own, its circular-reference
    markers are not cleaned up on error.
    """
    enc = json.JSONEncoder(**dumps_kwargs)
    make = json.encoder.c_make_encoder
    if make is None or enc.indent is not None:
        encode = enc.encode
        return lambda obj: (encode(obj),)
    c_encode = make({} if enc.check_circular else None, enc.default,
                    json.encoder.encode_basestring_ascii if enc.ensure_ascii
                    else json.encoder.encode_basestring,
                    enc.indent, enc.key_separator, enc.item_separator,
                    enc.sort_keys, enc.skipkeys, enc.allow_nan)
    return lambda obj: c_encode(obj, 0)


def _writer(etype, record_fields: Callable) -> Callable:
    """The bus subscriber writing *etype*'s declared record."""
    def write(ev, _record=record_fields, _category=etype.trace.category):
        fields = ev.trace_fields()
        if fields is not None:
            _record(ev.t, _category, fields)

    return write


class TraceRecorder:
    """Append-only in-memory trace with per-category enable switches.

    By default every category except the opt-in ones is enabled.
    ``enable_only(...)`` restricts recording to the listed categories;
    ``disable(...)``/``enable(...)`` switch categories individually.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._by_category: Dict[str, List[TraceEvent]] = {}
        self._category_enabled: Dict[str, bool] = {}
        self._default_enabled = True
        #: (bus, {event type: its subscribed writer}) per attached bus; the
        #: writers, not unsubscribe handles: a handle per type and network
        #: measurably raised peak memory over many short runs
        self._buses: List[Tuple[Any, Dict[type, Callable]]] = []

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def enable_only(self, categories: Iterable[str]) -> None:
        self._default_enabled = False
        self._category_enabled = {c: True for c in categories}
        self._sync()

    def disable(self, *categories: str) -> None:
        for c in categories:
            self._category_enabled[c] = False
        self._sync()

    def enable(self, *categories: str) -> None:
        for c in categories:
            self._category_enabled[c] = True
        self._sync()

    def is_enabled(self, category: str) -> bool:
        return self._category_enabled.get(
            category, self._default_enabled and category not in _OPT_IN)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def attach(self, bus) -> "TraceRecorder":
        """Record *bus*'s events: one writer per enabled traced type, kept
        in step with the category switches (a second attach is a no-op)."""
        if all(attached is not bus for attached, _ in self._buses):
            self._buses.append((bus, {}))
            self._sync()
        return self

    def _sync(self) -> None:
        record = self.record_fields
        for bus, writers in self._buses:
            for etype in _TRACED:
                enabled = self.is_enabled(etype.trace.category)
                writer = writers.get(etype)
                if enabled and writer is None:
                    writers[etype] = writer = _writer(etype, record)
                    bus.subscribe(etype, writer)
                elif not enabled and writer is not None:
                    bus.unsubscribe(etype, writers.pop(etype))

    def record(self, time: float, category: str, /, **fields: Any) -> None:
        self.record_fields(time, category, fields)

    def record_fields(self, time: float, category: str,
                      fields: Dict[str, Any]) -> None:
        """Append one record (unfiltered); takes ownership of *fields*."""
        event = TraceEvent(time, category, fields)
        self.events.append(event)
        bucket = self._by_category.get(category)
        if bucket is None:
            bucket = self._by_category[category] = []
        bucket.append(event)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def select(self, category: Optional[str] = None,
               predicate: Optional[Callable[[TraceEvent], bool]] = None,
               since: float = float("-inf"),
               until: float = float("inf")) -> List[TraceEvent]:
        """Events matching all given filters, in record order.

        With a ``category`` the per-category index narrows the scan to the
        matching events up front — O(matches), not O(len(trace)).
        """
        source = (self._by_category.get(category, [])
                  if category is not None else self.events)
        out = []
        for ev in source:
            if not (since <= ev.time <= until):
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def count(self, category: str) -> int:
        return len(self._by_category.get(category, ()))

    def times(self, category: str) -> List[float]:
        return [ev.time for ev in self._by_category.get(category, [])]

    def last(self, category: str) -> Optional[TraceEvent]:
        bucket = self._by_category.get(category)
        return bucket[-1] if bucket else None

    def clear(self) -> None:
        self.events.clear()
        self._by_category.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> int:
        """Write one JSON object per event; returns the event count.

        Event fields live under a dedicated ``"fields"`` key so a field
        named ``time`` or ``category`` never collides with the event header.
        Fields that are not JSON-serializable are stringified, so traces of
        arbitrary protocol state can always be exported for offline
        analysis.
        """
        from pathlib import Path

        def default(value):
            return str(value)

        with Path(path).open("w") as fh:
            for ev in self.events:
                fh.write(json.dumps({"time": ev.time, "category": ev.category,
                                     "fields": ev.fields},
                                    default=default) + "\n")
        return len(self.events)

    @staticmethod
    def from_jsonl(path) -> "TraceRecorder":
        """Reload a trace exported with :meth:`to_jsonl`.

        Reads both the namespaced format and the legacy flat layout (fields
        spread beside ``time``/``category``) from older exports.
        """
        from pathlib import Path

        recorder = TraceRecorder()
        with Path(path).open() as fh:
            for line in fh:
                data = json.loads(line)
                time = data.pop("time")
                category = data.pop("category")
                if set(data) == {"fields"} and isinstance(data["fields"], dict):
                    fields = data["fields"]
                else:
                    fields = data
                recorder.record_fields(time, category, fields)
        return recorder

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)
