"""The endatlas benchmark: one command, three workloads, checked outputs.

    python3 endbench/run.py --workload oracle-sweep --seed 1 --seconds 25 --trace 0
    python3 endbench/run.py                       # every workload, one after another

Run from the root of a checkout; endatlas is imported from its ``src``.
Inputs are generated from ``--seed`` before any timing starts.  Each pass of
a workload runs in a fresh single-threaded child process (``ENDATLAS_THREADS=1``)
that sets up, then issues the workload's calls one at a time (closed loop)
and checks every output.  Passes repeat while the time measured so far plus
one more pass fits in ``--seconds``; there is always at least one.  Set-up is
also timed in extra fresh processes so that at least three samples exist.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of one
traced pass, next to one untraced pass that gives the tracing overhead.
README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # every run must end within 180 s
MIN_SETUP_SAMPLES = 3
THREADS = "1"
END_TO_END = (  # name, unit; reported on every workload with --trace 0
    ("setup_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (after the path set-up above)
from tracer import per_layer_names  # noqa: E402


class BenchError(RuntimeError):
    """The run cannot produce a result (missing program, child crash, timeout)."""


# -- environment ---------------------------------------------------------------------


def _git_sha():
    """HEAD of the checkout read from .git directly, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256():
    """Digest of the library sources, which identifies the program without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "endatlas").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "ENDATLAS_THREADS": THREADS,
    }


def _check_program():
    if not (SRC / "endatlas" / "__init__.py").is_file():
        raise BenchError(f"no endatlas sources under {SRC}; run from a checkout of the repository")
    os.environ["ENDATLAS_THREADS"] = THREADS
    sys.path.insert(0, str(SRC))
    import endatlas

    if Path(endatlas.__file__).resolve().parent != (SRC / "endatlas").resolve():
        raise BenchError(f"imported endatlas from {endatlas.__file__}, not from {SRC}")


# -- child processes -------------------------------------------------------------------


def _child(mode, workload, plan, deadline):
    """Run one child; returns (set-up seconds, scaled set-up seconds, result or None)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), ENDATLAS_THREADS=THREADS)
    argv = [sys.executable, str(HERE / "child.py"), mode, workload]
    if plan is not None:
        argv.append(str(plan))
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process of {workload} ran past the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} process of {workload} exited {proc.returncode}")
    ready = scale = result = None
    for line in out.splitlines():
        if line.startswith("ready "):
            ready = float(line[6:]) - spawned
        elif line.startswith("scale "):
            scale = float(line[6:])
        elif line.startswith("result "):
            result = json.loads(line[7:])
    if ready is None or scale is None or (plan is not None and result is None):
        raise BenchError(f"{mode} process of {workload} printed no result")
    return ready, ready * scale, result


# -- metrics ---------------------------------------------------------------------------


def _pct(values, q):
    """Percentile q (0-100), interpolated between closest ranks."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _stage_figures(workload, passes):
    """The per-stage figures of README.md, each the median over passes."""
    out = {}
    for stage in workloads.STAGES[workload]:
        sums = [sum(c[1] for c in p["calls"] if c[0] == stage) for p in passes]
        out[f"{stage}_s"] = (statistics.median(sums), "s")
        if stage in ("classify", "equiv"):
            lat = [c[1] * 1000 for p in passes for c in p["calls"] if c[0] == stage]
            out[f"{stage}_p50_ms"] = (_pct(lat, 50), "ms")
            out[f"{stage}_p90_ms"] = (_pct(lat, 90), "ms")
            out[f"{stage}_n"] = (len(lat), "count")
    return out


def measure(workload, plan, seconds, deadline):
    passes, setups, raw_setups = [], [], []
    measured = 0.0
    while True:
        raw_setup, setup, result = _child("pass", workload, plan, deadline)
        passes.append(result)
        setups.append(setup)
        raw_setups.append(raw_setup)
        measured += result["total_s"]
        if measured + result["total_s"] > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        raw_setup, setup, _ = _child("setup", workload, None, deadline)
        setups.append(setup)
        raw_setups.append(raw_setup)
    values = {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(p["scaled_total_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    info = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "calls_per_pass": len(passes[0]["calls"]),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_total_s": statistics.median(p["total_s"] for p in passes),
        "stages": _stage_figures(workload, passes),
    }
    return metrics, passes, info


def measure_traced(workload, plan, deadline):
    _, _, plain = _child("pass", workload, plan, deadline)
    _, _, traced = _child("traced", workload, plan, deadline)
    overhead = traced["scaled_total_s"] / plain["scaled_total_s"] - 1
    layers = dict(traced["layers"], **{"trace.overhead_frac": overhead})
    units = {name: unit for name, unit, _ in per_layer_names()}
    metrics = {name: (layers[name], units[name]) for name, _, _ in per_layer_names()}
    if traced["digest"] != plain["digest"]:
        traced["failures"].append("traced and untraced passes gave different output digests")
    info = {
        "passes": 2,
        "raw_total_s": plain["total_s"],
        "traced_raw_total_s": traced["total_s"],
        "traced_window_s": traced["window_s"],
        "self_s_sum": traced["self_s_sum"],
        "stages": _stage_figures(workload, [plain]),
    }
    return metrics, [plain, traced], info


def run_workload(workload, seed, seconds, trace, deadline):
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        steps = workloads.prepare(workload, seed, workdir)
        plan = workdir / "plan.json"
        plan.write_text(json.dumps(steps), encoding="utf-8")
        if trace:
            metrics, passes, info = measure_traced(workload, plan, deadline)
        else:
            metrics, passes, info = measure(workload, plan, seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    attempted = sum(len(p["calls"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = min(attempted, len(failures))
    info["failed_frac"] = (failed / attempted, "ratio")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, info, failures


def report(workload, result, info, env):
    """Human-readable lines; the JSON result line follows them."""
    print(f"== {workload}: {info['passes']} pass(es), "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in info["stages"].items():
        print(f"  stage {name} = {value:.6g} {unit}")
    value, unit = info["failed_frac"]
    print(f"  failed_frac = {value:.6g} {unit}")
    for key in ("raw_setup_s", "raw_total_s", "setup_samples", "calls_per_pass",
                "traced_raw_total_s", "traced_window_s", "self_s_sum"):
        if key in info:
            print(f"  {key} = {info[key]:.6g}")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_program()
        env = environment()
        results = {}
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            deadline = time.monotonic() + DEADLINE_S
            result, info, failures = run_workload(
                workload, args.seed, args.seconds, args.trace, deadline
            )
            for failure in failures:
                print(f"FAILED {failure}", file=sys.stderr)
            report(workload, result, info, env)
            results[workload] = result
    except BenchError as exc:
        print(f"endbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
