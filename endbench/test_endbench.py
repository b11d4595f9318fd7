"""Tests of the benchmark's own machinery: the tracer, the checks, the metric list.

    PYTHONPATH=src python3 -m pytest -q endbench
"""

import inspect
import json
import math
import sys
import time
from pathlib import Path

import child
import workloads
from speed import EXPONENT, REFERENCE_S, SpeedProbe
from tracer import TARGETS, Tracer, per_layer_names

HERE = Path(__file__).resolve().parent

SMALL_STEPS = [
    {"stage": "classify", "type": "A2", "galois": "c3:inner"},
    {"stage": "classify", "type": "A1", "galois": "c2:inner"},
    {"stage": "bijection", "type": "A2", "galois": "c2:outer"},
    {"stage": "local_global", "type": "A1", "galois": "c2:inner"},
    {"stage": "restricted_search", "type": "A2", "galois": "c3:inner", "place": "<g1>"},
    {"stage": "restricted_search", "type": "A2", "galois": "c3:inner", "place": "remark"},
    {"stage": "reduction", "type": "A2", "trials": 2, "seed": 7},
    {"stage": "shapiro", "base": "A1"},
]


def _bindings():
    """Every function-valued attribute of every loaded endatlas module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "endatlas" or name.startswith("endatlas.")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value):
                out[(name, attr)] = value
            elif inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    if inspect.isfunction(cvalue):
                        out[(name, attr, cattr)] = cvalue
    return out


def test_wrappers_catch_calls_through_imported_aliases():
    import endatlas
    from endatlas import elliptic, endodata, suites, weyl
    from endatlas.rootsys import build_root_system
    from endatlas.torus import TorusElement

    rs = build_root_system("A2")
    w = weyl.enumerate_weyl(rs)[3]
    s = TorusElement([0, 0])
    with Tracer() as tracer:
        # the defining module and three modules that imported the name
        assert suites.torus_action is weyl.torus_action
        assert elliptic.torus_action is weyl.torus_action
        assert endatlas.torus_action is weyl.torus_action
        assert weyl.torus_action.__wrapped__ is not None
        suites.torus_action(w, s)
        endodata.torus_action(w, s)
        endatlas.torus_action(w, s)
        w.inverse()
    assert tracer.stats["weyl.torus_action"][0] == 3
    # each torus_action inverts its element (cached after the first), plus one direct call
    assert tracer.stats["weyl.WeylElement.inverse"][0] == 4
    assert tracer.stats["torus.TorusElement.value_at"][0] == 3 * rs.rank


def test_every_target_is_wrapped_and_every_binding_restored():
    import endatlas.cli  # noqa: F401  load every module that holds aliases
    import endatlas.suites  # noqa: F401

    before = _bindings()
    tracer = Tracer().install()
    try:
        during = _bindings()
        for module, names in TARGETS.items():
            for name in names:
                owner = sys.modules[f"endatlas.{module}"]
                for part in name.split("."):
                    owner = getattr(owner, part)
                assert hasattr(owner, "__wrapped__"), (module, name)
        assert during != before
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_are_non_negative_and_within_the_traced_window():
    expected = workloads.load_expected()
    tracer = Tracer().install()
    try:
        start = time.perf_counter()
        result = child.run_pass(SMALL_STEPS, expected)
        window = time.perf_counter() - start
    finally:
        tracer.restore()
    assert result["failures"] == []
    assert all(self_s >= 0 for _, self_s in tracer.stats.values())
    assert tracer.self_seconds() <= window
    assert tracer.stats["suites.shapiro_suite"][0] == 1
    metrics = tracer.metrics(overhead_frac=0.0)
    assert 0 < metrics["endodata.equivalent.witness_ratio"] <= 1
    assert metrics["elliptic.brute_force_inventory.repeat_ratio"] >= 1


def test_traced_and_untraced_passes_give_identical_digests():
    expected = workloads.load_expected()
    plain = child.run_pass(SMALL_STEPS, expected)
    with Tracer():
        traced = child.run_pass(SMALL_STEPS, expected)
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["digest"] == traced["digest"]


def test_checks_count_wrong_outputs():
    expected = workloads.load_expected()
    wrong = json.loads(json.dumps(expected))
    wrong["classify"]["A2/c3:inner"] = "0" * 64
    result = child.run_pass(SMALL_STEPS[:1], wrong)
    assert len(result["failures"]) == 1
    assert result["calls"][0][2] is False


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)



def test_speed_scale_uses_the_probe_samples_around_a_call():
    probe = SpeedProbe()
    probe.samples = [0.010, 0.020, 0.030, 0.060, 0.500]
    # a call after sample 2: samples 1 and 2 before it, 3 and 4 after it
    assert math.isclose(probe.scale(2), (REFERENCE_S / 0.045) ** EXPONENT)
    assert math.isclose(probe.scale(0), (REFERENCE_S / 0.020) ** EXPONENT)
