"""The canonical trace digest against its one-line reference formula.

``hash_trace`` encodes with one reused encoder and hashes in chunks; the
golden hashes, the fuzz corpus and every replay contract depend on it
producing exactly the bytes of the formula below, record for record.
"""

import enum
import hashlib
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz import runner
from repro.fuzz.runner import HASH_CHUNK, hash_trace
from repro.sim.trace import TraceEvent, chunk_encoder


def reference_hash(trace) -> str:
    """The digest's definition: one ``json.dumps`` per record."""
    h = hashlib.sha256()
    for ev in trace.events:
        h.update(json.dumps([ev.time, ev.category, ev.fields],
                            sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


class Colour(enum.Enum):
    RED = 1
    BLUE = "bé"


class Opaque:
    """A value JSON cannot encode; ``default=str`` renders it."""

    def __init__(self, tag):
        self.tag = tag

    def __str__(self):
        return f"<opaque {self.tag!r}>"


def trace_of(records):
    return SimpleNamespace(events=[TraceEvent(t, c, f) for t, c, f in records])


# any character: control, non-ASCII, astral, and lone surrogates
TEXT = st.text(st.characters() | st.characters(categories=["Cs"]),
               max_size=12)
NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=True,
                                             allow_infinity=True))
SCALARS = st.one_of(
    st.none(), st.booleans(), NUMBERS, TEXT,
    st.sampled_from([Colour.RED, Colour.BLUE, Opaque("x\n☃"),
                     frozenset({3}), b"raw", 2 + 1j]))
# one key type per dict: ``sort_keys`` cannot order str against int keys
KEYS = st.one_of(st.just(TEXT), st.just(st.integers()),
                 st.just(st.booleans() | st.integers(-3, 3)),
                 st.just(st.floats(allow_nan=False)))


@st.composite
def dicts(draw, children):
    return draw(st.dictionaries(draw(KEYS), children, max_size=4))


VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.tuples(children, children),
                               dicts(children)),
    max_leaves=12)
FIELDS = st.one_of(st.just({}), st.dictionaries(TEXT, VALUES, max_size=5),
                   dicts(VALUES))
RECORDS = st.tuples(NUMBERS, TEXT, FIELDS)
#: trace lengths around the chunk boundary
LENGTHS = st.sampled_from([0, 1, HASH_CHUNK - 1, HASH_CHUNK, HASH_CHUNK + 1,
                           2 * HASH_CHUNK + 1])


@settings(max_examples=100, deadline=None)
@given(st.lists(RECORDS, max_size=8))
def test_matches_reference_on_short_traces(records):
    trace = trace_of(records)
    assert hash_trace(trace) == reference_hash(trace)


@settings(max_examples=30, deadline=None)
@given(st.lists(RECORDS, min_size=1, max_size=5), LENGTHS)
def test_matches_reference_across_chunk_boundaries(records, length):
    trace = trace_of(records[i % len(records)] for i in range(length))
    assert len(trace.events) == length
    assert hash_trace(trace) == reference_hash(trace)


def test_empty_trace_is_the_empty_digest():
    assert hash_trace(trace_of([])) == hashlib.sha256().hexdigest()


def test_edge_values():
    nan, inf = float("nan"), float("inf")
    trace = trace_of([
        (nan, "nan", {"v": nan, "list": [inf, -inf, nan]}),
        (inf, "inf", {}),
        (-0.0, "bools next to ints", {"a": True, "b": 1, "c": [False, 0, 1.0]}),
        (1, "asciié☃\U0001f600", {"ü": "\x00\x1f\x7f\n\t\"\\"}),
        (2, "surrogate", {"s": "\ud800"}),
        (3, "int keys", {"m": {2: "b", 10: "a", -1: None}}),
        (4, "bool keys", {"m": {True: 1, 0: 2}}),
        (5, "float keys", {"m": {1.5: 1, -inf: 2}}),
        (6, "nested", {"x": [[{}], {"y": [[], {"z": ()}]}]}),
        (7, "default=str", {"e": Colour.BLUE, "o": Opaque(1), "set": {4},
                            "k": {Colour.RED: 1}.keys()}),
    ])
    assert hash_trace(trace) == reference_hash(trace)


def test_mixed_key_types_fail_like_the_reference():
    trace = trace_of([(1, "x", {"a": 1, 2: 3})])
    with pytest.raises(TypeError):
        reference_hash(trace)
    with pytest.raises(TypeError):
        hash_trace(trace)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_chunk_size_does_not_change_the_digest(monkeypatch, chunk):
    trace = trace_of((i * 0.5, f"c{i % 3}", {"i": i, "sq": [i, i * i]})
                     for i in range(20))
    expected = reference_hash(trace)
    monkeypatch.setattr(runner, "HASH_CHUNK", chunk)
    assert hash_trace(trace) == expected


def test_pure_python_encoder_fallback(monkeypatch):
    """Without the C accelerator the digest is the same bytes."""
    trace = trace_of([
        (0.1, "a", {"v": float("nan"), "u": "é\x01", "o": Opaque(2)}),
        (2, "b", {"m": {3: [True, 1, None]}, "e": Colour.RED}),
        (float("-inf"), "c", {}),
    ] * (HASH_CHUNK // 2 + 1))
    expected = reference_hash(trace)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert hash_trace(trace) == expected


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_chunk_encoder_matches_dumps_with_canonical_json_arguments(value):
    kwargs = dict(sort_keys=True, separators=(",", ":"), default=str)
    encode = chunk_encoder(**kwargs)
    assert "".join(encode(value)) == json.dumps(value, **kwargs)


def test_chunk_encoder_with_indent_falls_back_to_dumps():
    value = {"b": [1, {"c": None}], "a": "é"}
    encode = chunk_encoder(indent=2, sort_keys=True)
    assert "".join(encode(value)) == json.dumps(value, indent=2,
                                                sort_keys=True)
