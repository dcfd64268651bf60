"""Fast self-check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

It confirms that a run reports every metric BENCHMARK.json names, with its
unit; that correct reports pass; that an altered reference digest, a missing
reference entry or a mutated model each register as a failure rather than
passing silently; and that times are rescaled by the calibration alone.  Finally it runs the benchmark in a directory holding
only BENCHMARK.json and perfbench/, where it must exit nonzero with no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
import workloads

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_reference(workload: str) -> dict:
    with run.prepared(workload, 1, tiny=True) as inputs:
        reports = run.run_pass(inputs.paths)
    table = {m: run.digest(text) for m, (_, text) in zip(inputs.model_digests, reports.outputs)}
    return {"workloads": {workload: table}}


def check_metric_names(spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            outcome = run.run_workload(workload, 2, 0.5, trace, tiny=True)
            result = outcome.result()
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(result["correct"] and result["attempted"] > 0,
                   f"{workload} trace={int(trace)}: tiny run correct")
            expect(got == want, f"{workload} trace={int(trace)}: {key} names and units match")


def check_reference_catches_drift() -> None:
    ref = tiny_reference("torus_ladder")
    outcome = run.run_workload("torus_ladder", 1, 0.0, False, tiny=True, reference=ref)
    expect(outcome.failed == 0, "reports matching the reference pass")

    table = ref["workloads"]["torus_ladder"]
    altered = dict(table)
    first = next(iter(altered))
    altered[first] = "0" * 64
    outcome = run.run_workload("torus_ladder", 1, 0.0, False, tiny=True,
                               reference={"workloads": {"torus_ladder": altered}})
    expect(outcome.failed == outcome.attempted // len(table),
           "an altered reference digest fails its model in every pass")

    del altered[first]
    outcome = run.run_workload("torus_ladder", 1, 0.0, False, tiny=True,
                               reference={"workloads": {"torus_ladder": altered}})
    expect(outcome.failed > 0, "a model missing from the reference fails")


def _mutate_first(change):
    def mutate(jobs):
        return [replace(jobs[0], document=change(copy.deepcopy(jobs[0].document)))] + jobs[1:]
    return mutate


def check_mutated_models() -> None:
    def double_euler(doc):  # a lens space: same cohomology, transgression 2
        doc["basic"]["euler"][0][3] = 2
        return doc

    def heisenberg(doc):  # not ad-invariant: the validator rejects it
        doc["lie"] = {"n": 3, "c": [[1, 2, 3, 1]]}
        return doc

    def extra_unit(doc):  # one more degree-0 class than the Kunneth oracle expects
        doc["basic"]["generators"].append({"name": "extra", "degree": 0})
        return doc

    cases = (("sphere_chain", double_euler), ("torus_ladder", heisenberg),
             ("random_batch", extra_unit))
    for workload, change in cases:
        outcome = run.run_workload(workload, 1, 0.0, False, tiny=True,
                                   mutate=_mutate_first(change))
        expect(outcome.failed > 0 and not outcome.result()["correct"],
               f"{workload}: mutated model ({change.__name__}) fails")


def check_rescaling() -> None:
    """On a machine at half the reference speed, every time is halved: the
    calibration, and nothing of the program, is divided out."""
    real = run.speed.calibrate
    run.speed.calibrate = lambda: 2 * run.speed.REFERENCE_S
    try:
        with run.prepared("sphere_chain", 1, tiny=True, calibrated=True) as inputs:
            p = run.run_pass(inputs.paths, calibrated=True)
    finally:
        run.speed.calibrate = real
    expect(p.scales == [0.5] * len(inputs.paths)
           and p.scaled_latencies() == [lat / 2 for lat in p.latencies],
           "times are rescaled by reference / calibration, report by report")
    expect(real() > 0, "the calibration runs")


def check_bare_directory() -> None:
    run.WORK.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "torus_ladder",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program's sources the benchmark exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metric_names(spec)
    check_reference_catches_drift()
    check_mutated_models()
    check_rescaling()
    check_bare_directory()
    print(f"self-check: {'FAILED ' + str(len(failures)) if failures else 'all passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
