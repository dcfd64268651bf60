"""Record the reference output digest of every model of every workload.

    python3 perfbench/record.py

Run it only at a commit whose outputs are the agreed reference: a change that
claims a gain must keep every report bit-identical to these digests.  Each
model is reported once, must pass its closed-form oracles, and is stored as
sha256(model file) -> sha256(machine-format report).
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tables = {}
    for workload in workloads.WORKLOADS:
        with run.prepared(workload, seed=1) as inputs:
            reports = run.run_pass(inputs.paths)
        table = {}
        for job, model_digest, (rc, text) in zip(inputs.jobs, inputs.model_digests,
                                                 reports.outputs):
            problems = run.check_report(job, rc, text, None)
            if problems:
                print(f"FAIL {workload} {job.name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            table[model_digest] = run.digest(text)
        tables[workload] = table
        print(f"{workload}: {len(table)} reports recorded in {reports.wall_s:.1f} s")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"workloads": tables}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
