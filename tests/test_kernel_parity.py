"""Legacy-kernel parity: inputs that still name the retired batched kernel.

Configs, fuzz bundles and campaign points written while the simulator had a
second (batched) tick driver may carry ``"kernel": "batched"``.  The key is
accepted and ignored, so every such input must replay byte-identically to
the golden hashes recorded from the scalar kernel: the checked-in corpus,
the pinned seeded grid and a slice of the fuzz generator's output.
"""

import os

import pytest

from repro.config_io import scenario_from_dict, scenario_to_dict
from repro.fuzz.generate import FuzzCase, generate_case

from .test_golden_hashes import (CORPUS, GEN_SEED, _golden, bundle_case,
                                 case_hashes, scenario_hashes, seeded_grid)

GRID = seeded_grid()


def batched(case: FuzzCase) -> FuzzCase:
    """``case`` as written when it asked for the batched kernel."""
    data = case.to_dict()
    return FuzzCase.from_dict(
        {**data, "scenario": {**data["scenario"], "kernel": "batched"}})


class TestCorpusParity:
    """Every checked-in repro bundle, marked batched, matches its golden."""

    @pytest.mark.parametrize("name", [os.path.basename(p) for p in CORPUS],
                             ids=[os.path.basename(p) for p in CORPUS])
    def test_bundle_parity(self, name):
        assert (case_hashes(batched(bundle_case(name)))
                == _golden()["corpus"][name])

    def test_corpus_is_nonempty(self):
        # the sweep above is vacuous if the corpus dir ever goes missing
        assert len(CORPUS) >= 4


class TestSeededGridParity:
    """The pinned scenario grid, round-tripped through a config that names
    the batched kernel: one scenario per protocol regime."""

    @pytest.mark.parametrize("idx", range(len(GRID)),
                             ids=[f"seed{s.seed}-{s.traffic.kind}"
                                  for s in GRID])
    def test_grid_point_parity(self, idx):
        scenario = scenario_from_dict(
            {**scenario_to_dict(GRID[idx]), "kernel": "batched"})
        assert scenario_hashes(scenario) == _golden()["grid"][str(idx)]


class TestGeneratedCaseParity:
    """A pinned slice of the fuzz generator's output (random topologies,
    impairments, channels, fault schedules, irregular ``max_events``
    drive chunks), marked batched."""

    @pytest.mark.parametrize("index", range(25))
    def test_generated_case_parity(self, index):
        assert (case_hashes(batched(generate_case(GEN_SEED, index)))
                == _golden()["generated"][str(index)])
