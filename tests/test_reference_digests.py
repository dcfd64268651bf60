"""Every benchmark report, byte for byte, against the recorded reference digests.

`perfbench/reference.json` maps sha256(model file) to sha256(machine-format
report) for every model of every benchmark workload.  This regenerates the
model files as `perfbench/run.py` writes them and checks each report, so a
change that alters any benchmark output fails here, not only in a benchmark
run.  Nothing under `perfbench/` is written.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cartanss.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))["workloads"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_benchmark_report_matches_its_reference_digest(tmp_path, capsys, workload):
    table = REFERENCE[workload]
    jobs = WORKLOADS.generate(workload, seed=1)
    assert len(jobs) == len(table)
    for i, job in enumerate(jobs):
        text = json.dumps(job.document, indent=2) + "\n"
        path = tmp_path / f"{i:03d}_{job.name}.json"
        path.write_text(text, encoding="utf-8")
        want = table[sha256(text)]
        assert main(["pages", str(path), "--format", "machine"]) == 0, job.name
        assert sha256(capsys.readouterr().out) == want, job.name
