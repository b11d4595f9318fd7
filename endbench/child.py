"""One timed process of the benchmark: set up, then run a pass of steps.

    python3 endbench/child.py setup  WORKLOAD
    python3 endbench/child.py pass   WORKLOAD PLAN.json
    python3 endbench/child.py traced WORKLOAD PLAN.json

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
It prints ``ready <monotonic clock>`` once set-up is done (CLOCK_MONOTONIC is
system-wide, so the parent subtracts its own start time) and, for a pass,
``result <json>`` at the end.  A traced pass installs the tracer before
set-up, so the per-layer figures cover set-up and pass together.  Every
process probes the host speed right after set-up (see speed.py) and prints
the factor that scales its set-up time as ``scale <factor>``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

import workloads
from speed import SpeedProbe
from tracer import Tracer


def run_pass(steps, expected):
    """Issue the steps one at a time; time each call, then check its output.

    Each call is recorded as [stage, seconds, ok, scaled seconds, index of
    the last probe sample before it]; ``probe_s`` keeps the probe samples.
    """
    digest = hashlib.sha256()
    calls = []
    failures = []
    probe = SpeedProbe()
    probe.sample(3)
    for step in steps:
        name = workloads.step_label(step)
        seconds = 0.0
        try:
            prepared = workloads.inputs(step)
            start = time.perf_counter()
            try:
                output = workloads.call(step, prepared)
            finally:
                seconds = time.perf_counter() - start
            failure = workloads.check(step, output, expected)
            text = workloads.digest_text(step, output)
        except Exception:  # one failed call must not hide the others' figures
            failure = f"{step['stage']} {name}: raised\n{traceback.format_exc()}"
            text = "raised"
        digest.update(f"{step['stage']} {name}\n{text}\n".encode("utf-8"))
        calls.append([step["stage"], seconds, failure is None, None, len(probe.samples) - 1])
        if failure is not None:
            failures.append(failure)
        if probe.due():
            probe.sample()
    probe.sample(3)
    for c in calls:
        c[3] = c[1] * probe.scale(c[4])
    return {
        "calls": calls,
        "total_s": sum(c[1] for c in calls),
        "scaled_total_s": sum(c[3] for c in calls),
        "probe_s": probe.samples,
        "failures": failures,
        "digest": digest.hexdigest(),
    }


def main(argv):
    mode, workload = argv[0], argv[1]
    tracer = Tracer().install() if mode == "traced" else None
    window_start = time.perf_counter()
    workloads.setup(workload)
    print(f"ready {time.monotonic()!r}", flush=True)
    probe = SpeedProbe()
    probe.sample(3)
    print(f"scale {probe.scale(0)!r}", flush=True)
    if mode == "setup":
        return 0
    with open(argv[2], encoding="utf-8") as fh:
        steps = json.load(fh)
    result = run_pass(steps, workloads.load_expected())
    if tracer is not None:
        tracer.restore()
        result["window_s"] = time.perf_counter() - window_start
        result["layers"] = tracer.metrics(overhead_frac=0.0)
        result["self_s_sum"] = tracer.self_seconds()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
