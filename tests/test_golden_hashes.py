"""Golden-hash oracle for the scalar kernel.

``tests/golden_hashes.json`` pins, for every checked-in corpus bundle,
every scenario of the kernel parity grid (``kernel.diff.seeded_grid()``)
and the generated fuzz cases ``generate_case(20260808, i)`` for
``i < 150``, two digests of a scalar-kernel run:

* ``trace`` — the canonical trace hash (``fuzz.runner.hash_trace``);
* ``state`` — a SHA-256 over everything else observable: the fuzz result
  record for cases and bundles, the summary plus the per-station table
  and the final clock for grid scenarios.  ``events_executed`` is left out,
  as in the kernel parity harness.

Unlike the parity tests, this oracle does not compare two of our own
kernels against each other: it compares the current scalar kernel against
hashes recorded from an earlier tree, so a dataplane or agenda rewrite
must reproduce the old behaviour byte for byte.

Regenerate (only when a behaviour change is intended, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_hashes.py --write
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import replace
from typing import Dict

import pytest

from repro.fuzz.bundle import load_bundle
from repro.fuzz.generate import FuzzCase, generate_case
from repro.fuzz.runner import hash_trace, run_case
from repro.kernel.diff import seeded_grid, station_table
from repro.scenarios import run_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_hashes.json")
CORPUS = sorted(glob.glob(os.path.join(HERE, "corpus", "*.json")))
GEN_SEED = 20260808
GEN_CASES = 150


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _scalar_case(case: FuzzCase) -> FuzzCase:
    data = case.to_dict()
    scenario = dict(data["scenario"])
    scenario.pop("kernel", None)
    return FuzzCase(seed=data["seed"], index=data["index"],
                    scenario=scenario, drive=list(data["drive"]))


def case_hashes(case: FuzzCase) -> Dict[str, str]:
    record = run_case(_scalar_case(case)).to_record()
    record.pop("events_executed")
    return {"trace": record["trace_hash"], "state": _digest(record)}


def grid_hashes(idx: int) -> Dict[str, str]:
    result = run_scenario(replace(seeded_grid()[idx], kernel="scalar"))
    summary = result.summary()
    summary.pop("events_executed", None)
    state = {"summary": summary, "table": station_table(result),
             "now": result.engine.now}
    return {"trace": hash_trace(result.trace), "state": _digest(state)}


def bundle_case(name: str) -> FuzzCase:
    return FuzzCase.from_dict(
        load_bundle(os.path.join(HERE, "corpus", name))["case"])


def compute_all() -> Dict[str, Dict[str, Dict[str, str]]]:
    return {
        "corpus": {os.path.basename(p): case_hashes(bundle_case(
            os.path.basename(p))) for p in CORPUS},
        "grid": {str(i): grid_hashes(i) for i in range(len(seeded_grid()))},
        "generated": {str(i): case_hashes(generate_case(GEN_SEED, i))
                      for i in range(GEN_CASES)},
    }


def _golden() -> Dict[str, Dict[str, Dict[str, str]]]:
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


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_hashes.py "
                 "--write")
    with open(GOLDEN, "w") as fh:
        json.dump(compute_all(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
