"""Re-record the frozen default-seed inputs and their reference hashes.

    python3 wrtbench/freeze.py [--src src]

Writes ``inputs/<workload>.json`` (a ``config_io`` scenario dict, or the
``FuzzCase`` list of ``fuzz_replay``) and ``inputs/reference.json`` (the
trace hash of each at the current source tree).  Run it only when a
workload is deliberately redefined or the program's behaviour deliberately
changes, and say so in the change that commits the new files: the
reference hashes are the benchmark's "same behaviour" check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: cases in the fuzz_replay pass
FUZZ_CASES = 24


def scenarios(seed: int):
    """The simulate workloads, defined once here and frozen as data."""
    from repro import config_io
    from repro.phy.impairments import ImpairmentSpec
    from repro.scenarios import Scenario, TrafficMix

    return {
        "light_poisson": Scenario(
            n=32, l=2, k=1, traffic=TrafficMix(kind="poisson", rate=0.01),
            horizon=4000.0, seed=seed),
        "saturated_mixed": Scenario(
            n=16, l=2, k=1, traffic=TrafficMix(kind="saturate"),
            horizon=3000.0, seed=seed),
        "lossy_adaptive": Scenario(
            n=16, l=2, k=1, traffic=TrafficMix(kind="poisson", rate=0.02),
            impairments=ImpairmentSpec(loss_prob=0.005),
            adaptive_timers=True, horizon=20000.0, seed=seed),
    }, config_io.scenario_to_dict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src",
                        help="source tree holding the repro package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))

    from calibrate import Calibrator
    from repro.fuzz.generate import generate_case
    from workloads import (DEFAULT_SEED, INPUTS_DIR,
                           REFERENCE_FILE, WORKLOADS)

    INPUTS_DIR.mkdir(exist_ok=True)
    specs, to_dict = scenarios(DEFAULT_SEED)
    for name, scenario in specs.items():
        (INPUTS_DIR / f"{name}.json").write_text(
            json.dumps(to_dict(scenario), indent=1, sort_keys=True) + "\n")
    cases = [generate_case(DEFAULT_SEED, i).to_dict()
             for i in range(FUZZ_CASES)]
    (INPUTS_DIR / "fuzz_replay.json").write_text(
        json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")

    if REFERENCE_FILE.exists():
        REFERENCE_FILE.unlink()
    hashes, digests = {}, {}
    for name, workload in WORKLOADS.items():
        inputs = workload.inputs(DEFAULT_SEED)
        rep = workload.rep(inputs, Calibrator())
        if rep.failures:
            print(f"{name}: output checks fail: {rep.failures[:3]}",
                  file=sys.stderr)
            return 1
        hashes[name], digests[name] = rep.hashes, inputs.digest
        print(f"{name}: digest {inputs.digest}")
    REFERENCE_FILE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "digests": digests, "hashes": hashes},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
