"""Import contracts: the dependency arrow of the event spine points one way.

The protocol layers (``repro.core``, ``repro.sim``, ``repro.phy``,
``repro.baselines``) emit typed events; the observability and fuzzing
layers (``repro.obs``, ``repro.fuzz``) subscribe.  Nothing in a protocol
layer may import a subscriber layer — that would reintroduce the inverted
dependency this refactor removed.  Likewise the layers that declare config
dataclasses (``core``, ``phy``, ``qoe``, ``sim``, ``events``) state their
dict form as plain field metadata and never import the codec above them,
``repro.config_io``.  Enforced statically (AST walk over the source tree)
so a violation fails even if the import is unused or lazy.

Trace records have one writer path too: events reach a recorder through
the writers :meth:`repro.sim.trace.TraceRecorder.attach` subscribes, so
only :mod:`repro.sim.trace` (its writers and ``TraceRecorder.from_jsonl``)
and the fabric's trace re-hydration (:mod:`repro.fabric.merge`) may call
``record``/``record_fields``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"

#: emitting / declaring packages -> packages they must never import
CONTRACTS = {
    "core": ("repro.obs", "repro.fuzz", "repro.config_io"),
    "sim": ("repro.obs", "repro.fuzz", "repro.core", "repro.config_io"),
    "phy": ("repro.obs", "repro.fuzz", "repro.config_io"),
    "qoe": ("repro.config_io",),
    "baselines": ("repro.obs", "repro.fuzz"),
    "events": ("repro.obs", "repro.fuzz", "repro.core", "repro.config_io"),
}


def _imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # absolute imports only: the tree uses no relative imports
            if node.module:
                yield node.lineno, node.module


@pytest.mark.parametrize("package", sorted(CONTRACTS))
def test_layer_never_imports_subscribers(package):
    forbidden = CONTRACTS[package]
    violations = []
    for path in sorted((SRC / package).rglob("*.py")):
        for lineno, module in _imports(path):
            if any(module == f or module.startswith(f + ".")
                   for f in forbidden):
                violations.append(
                    f"{path.relative_to(SRC.parent)}:{lineno} imports {module}")
    assert not violations, "\n".join(violations)


def test_contract_covers_real_packages():
    for package in CONTRACTS:
        assert (SRC / package).is_dir(), package


#: the only modules that may append trace records directly
RECORD_WRITERS = ("sim/trace.py", "fabric/merge.py")


def test_trace_records_written_only_by_the_trace_module():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in RECORD_WRITERS:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("record", "record_fields")):
                violations.append(f"{rel}:{node.lineno} calls "
                                  f".{node.func.attr}(...)")
    assert not violations, "\n".join(violations)
