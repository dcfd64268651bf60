"""Benchmark of `cartanss pages --format machine`, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload torus_ladder --seed 1 --seconds 28 --trace 0

One process runs one workload as a closed loop: it writes the workload's model
files from the seed, then calls the public entry point
`cartanss.cli.main(["pages", FILE, "--format", "machine"])` in-process for each
file in turn, the next only after the previous report returns.  Each pass
over the files starts from a fresh import of `cartanss`, as a real
`cartanss pages` process would, so the program's own memo caches never carry
one pass into the next.  Every report is checked against the workload's
closed-form oracles and against the recorded reference output
(reference.json).

--trace 0 repeats passes for --seconds seconds and reports the end-to-end
metrics, with every time rescaled to a reference machine speed (speed.py);
--trace 1 makes one untraced and one traced pass and reports the per-module
metrics of spans.py.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
name every metric with its unit.  The exit code is 0 when every report is
correct, 1 when one is not, and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import quantile
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
LAYERS = ("cli", "specseq", "verify", "model", "liealg", "qlinalg")
SETUP_REPEATS = 5
CALIBRATE_EVERY_S = 1.5  # longest stretch of reports between two calibrations
MISSING = ""  # a recorded digest that should exist but does not

# name -> (unit, better); all are measured with tracing off, and the times
# are rescaled to the reference speed of speed.py.
END_TO_END = {
    "report_s": ("s", "lower"),
    "report_p50_s": ("s", "lower"),
    "report_p90_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def fresh_import() -> dict:
    """Import cartanss from the checkout's src/ with no module state left over."""
    for key in [k for k in sys.modules if k == "cartanss" or k.startswith("cartanss.")]:
        del sys.modules[key]
    mods = {"cartanss": importlib.import_module("cartanss")}
    for layer in LAYERS:
        mods[layer] = importlib.import_module(f"cartanss.{layer}")
    origin = Path(mods["cartanss"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchmarkError(f"cartanss was imported from {origin}, not from {SRC}")
    return mods


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    wall_s: float  # the reports' wall time, calibrations left out
    latencies: list[float]
    outputs: list[tuple[object, str]]  # (exit code or traceback, captured stdout)
    scales: list[float]  # per report: speed.scale of the calibrations around it

    def scaled_latencies(self) -> list[float]:
        return [lat * s for lat, s in zip(self.latencies, self.scales)]


def run_pass(paths: list[str], recorder: spans.Recorder | None = None,
             calibrated: bool = False) -> Pass:
    """Report every model once.  With `calibrated`, calibrations bracket every
    stretch of about CALIBRATE_EVERY_S of reports, and each report gets the
    scale of its stretch; otherwise every scale is 1."""
    mods = fresh_import()
    if recorder is not None:
        recorder.install(mods)
    main = mods["cli"].main
    gc.collect()
    latencies, outputs, scales = [], [], []
    last_cal = speed.calibrate() if calibrated else None
    stretch_s, stretch_n, cal_s = 0.0, 0, 0.0
    t_pass = time.perf_counter()
    for i, path in enumerate(paths):
        out = io.StringIO()
        argv = ["pages", path, "--format", "machine"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                if recorder is None:
                    rc = main(argv)
                else:
                    rc = recorder.report(i, lambda: main(argv))
            except Exception:  # a crash is a failed report, not a failed benchmark
                rc = traceback.format_exc()
        latencies.append(time.perf_counter() - t0)
        outputs.append((rc, out.getvalue()))
        stretch_s += latencies[-1]
        stretch_n += 1
        if last_cal is None:
            scales.append(1.0)
        elif stretch_s >= CALIBRATE_EVERY_S or i == len(paths) - 1:
            t_cal = time.perf_counter()
            cal = speed.calibrate()
            cal_s += time.perf_counter() - t_cal
            scales.extend([speed.scale(last_cal, cal)] * stretch_n)
            last_cal, stretch_s, stretch_n = cal, 0.0, 0
    return Pass(time.perf_counter() - t_pass - cal_s, latencies, outputs, scales)


def check_report(job: workloads.Job, rc, text: str, want_digest: str | None) -> list[str]:
    """Problems with one report: exit code, oracles, and the recorded output."""
    if rc != 0:
        return [f"exit {rc}" if isinstance(rc, int) else f"crashed:\n{rc}"]
    problems = []
    try:
        doc = json.loads(text)
        if doc["abutment"]["passed"] is not True:
            problems.append("abutment failed")
        if doc["e2_check"]["verdict"] != "isomorphism":
            problems.append(f"E_2 verdict {doc['e2_check']['verdict']!r}")
        if tuple(doc["total_cohomology"]) != job.expected_total:
            problems.append(
                f"total cohomology {doc['total_cohomology']} != {list(job.expected_total)}"
            )
        if job.transgression_01 is not None:
            entry = doc["transgression"].get("0,1")
            if not (entry and len(entry) == 1 and len(entry[0]) == 1
                    and abs(Fraction(entry[0][0])) == job.transgression_01):
                problems.append(f"transgression at (0,1) is {entry}, not ±{job.transgression_01}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    if want_digest == MISSING:
        problems.append("model file missing from the recorded reference")
    elif want_digest is not None and digest(text) != want_digest:
        problems.append("report differs from the recorded reference output")
    return problems


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read the reference outputs: {exc}") from exc


def reference_digests(reference: dict | None, workload: str,
                      model_digests: list[str]) -> list[str | None]:
    """Recorded report digest per model; MISSING where a model has none, which
    means the generator no longer reproduces the recorded inputs."""
    if reference is None:
        return [None] * len(model_digests)
    table = reference["workloads"].get(workload, {})
    return [table.get(d, MISSING) for d in model_digests]


@dataclass
class Outcome:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


@dataclass
class Inputs:
    setup_s: float
    jobs: list[workloads.Job]
    paths: list[str]
    model_digests: list[str]


@contextlib.contextmanager
def prepared(workload: str, seed: int, tiny: bool = False, mutate=None,
             calibrated: bool = False):
    """Import cartanss and write the model files SETUP_REPEATS times; setup_s is
    the median, rescaled by calibrations before and after when `calibrated`.
    `mutate(jobs)` may alter the jobs before they are written, which the
    self-check uses to plant a wrong model.  The files are removed on exit."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        before = speed.calibrate() if calibrated else None
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fresh_import()
            jobs = workloads.generate(workload, seed, tiny)
            if mutate is not None:
                jobs = mutate(jobs)
            paths, texts = [], []
            for i, job in enumerate(jobs):
                text = json.dumps(job.document, indent=2) + "\n"
                path = workdir / f"{i:03d}_{job.name}.json"
                path.write_text(text, encoding="utf-8")
                paths.append(str(path))
                texts.append(text)
            times.append(time.perf_counter() - t0)
        setup_s = statistics.median(times)
        if calibrated:
            setup_s *= speed.scale(before, speed.calibrate())
        yield Inputs(setup_s, jobs, paths, [digest(t) for t in texts])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, reference: dict | None = None,
                 mutate=None) -> Outcome:
    """One benchmark run: set-up, then timed passes (trace off) or one untraced
    and one traced pass (trace on), every report checked."""
    with prepared(workload, seed, tiny, mutate, calibrated=not trace) as inputs:
        wanted = reference_digests(reference, workload, inputs.model_digests)
        outcome = Outcome({}, {}, 0, 0)

        def checked(p: Pass) -> Pass:
            for job, (rc, text), want in zip(inputs.jobs, p.outputs, wanted):
                outcome.attempted += 1
                problems = check_report(job, rc, text, want)
                if problems:
                    outcome.failed += 1
                    outcome.problems.extend(f"{job.name}: {msg}" for msg in problems)
            return p

        if trace:
            untraced = checked(run_pass(inputs.paths))
            recorder = spans.Recorder()
            traced = checked(run_pass(inputs.paths, recorder))
            outcome.metrics = recorder.metrics(traced.wall_s, untraced.wall_s)
            outcome.units = {k: u for k, (u, _) in spans.layer_metric_specs().items()}
            span_file = WORK / f"spans_{workload}_seed{seed}.tsv"
            recorder.write(span_file)
            outcome.notes.append(f"spans: {len(recorder.name)} written to {span_file}")
            return outcome

        passes, last_s = [], 0.0  # last_s: the last pass, calibrations included
        t_measure = time.perf_counter()
        while not passes or time.perf_counter() - t_measure + last_s <= seconds:
            t0 = time.perf_counter()
            passes.append(checked(run_pass(inputs.paths, calibrated=True)))
            last_s = time.perf_counter() - t0
        per_model = [statistics.median(lat)
                     for lat in zip(*(p.scaled_latencies() for p in passes))]
        outcome.metrics = {
            "report_s": statistics.median(sum(p.scaled_latencies()) for p in passes),
            "report_p50_s": quantile.harrell_davis(per_model, 0.5),
            "report_p90_s": quantile.harrell_davis(per_model, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": inputs.setup_s,
        }
        outcome.units = {k: u for k, (u, _) in END_TO_END.items()}
        outcome.notes.append(
            f"passes: {len(passes)}; wall {', '.join(f'{p.wall_s:.3f}' for p in passes)} s, "
            f"rescaled {', '.join(f'{sum(p.scaled_latencies()):.3f}' for p in passes)} s; "
            f"report_s is the median rescaled pass; report_p50_s and report_p90_s "
            f"are Harrell-Davis quantiles of {len(per_model)} per-model medians"
        )
        return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cartanss" / "__init__.py").is_file():
        print(f"perfbench: no cartanss sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        reference = load_reference()
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               reference=reference)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for msg in outcome.problems[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    result = outcome.result()
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for name, value in outcome.metrics.items():
        print(f"{name} = {value:.6g} {outcome.units[name]}")
    for note in outcome.notes:
        print(note)
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"failed_ratio = {outcome.failed}/{outcome.attempted} = {ratio:.6g}")
    print(f"correct: {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
