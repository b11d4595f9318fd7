"""Record the outputs the benchmark compares every run against.

    PYTHONPATH=src python3 endbench/record_expected.py

Writes ``endbench/expected.json``: the sha256 of the ``classify --format json``
output of every table in the tables workload, and of the outcome of every
restricted-place and remark-mode search in the oracle sweep.  Run it only at
a commit whose outputs are known to be right (the golden tables, the suites
and the tests all pass); from then on a run whose outputs differ counts them
as failed.
"""

from __future__ import annotations

import json
import sys

import workloads


def main():
    out = {"classify": {}, "restricted_search": {}}
    steps = [{"stage": "classify", "type": t, "galois": m} for t, m in workloads.table_specs()]
    steps += [s for s in workloads._prepare_oracle(0) if s["stage"] == "restricted_search"]
    for step in steps:
        output = workloads.call(step, workloads.inputs(step))
        if step["stage"] == "classify":
            if output["exit"] != 0:
                sys.exit(f"classify {workloads.step_label(step)} exited {output['exit']}")
            text = output["stdout"]
        else:
            text = workloads.digest_text(step, output)
        out[step["stage"]][workloads.step_label(step)] = workloads.sha256(text)
    with open(workloads.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out['classify'])} classify and "
          f"{len(out['restricted_search'])} search digests to {workloads.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
