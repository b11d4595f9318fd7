"""The benchmark's workloads: what each one sets up, the steps it generates
from a seed, and how each step is called and checked.

A step is a JSON-able dict with a ``stage`` key.  ``prepare`` runs before any
timed process starts and writes every generated input under the work
directory, so the timed processes only load and run.  ``call`` is what gets
timed; ``check`` compares its output with what is known to be right and
returns a failure message or None.  ``digest_text`` is the canonical text of
an output, hashed into the run's output digest.

Inputs differ between seeds but the mix of work does not: each workload fixes
which configurations, types, models and query kinds appear and lets the seed
choose only order, torus elements, conjugating elements and partners, so that
the cost of a run depends little on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("oracle-sweep", "tables", "transfer")

# The acceptance sweep of rank <= 3 without D4/s3 and C3/c2:inner, the two
# configurations too costly for the run budget (see README.md).
ORACLE_CONFIGS = (
    ("A1", "trivial"), ("A1", "c2:inner"), ("A1", "c3:inner"),
    ("A2", "trivial"), ("A2", "c2:inner"), ("A2", "c2:outer"), ("A2", "c3:inner"),
    ("C2", "trivial"), ("C2", "c2:inner"), ("C2", "c3:inner"),
    ("C3", "trivial"), ("C3", "c3:inner"),
    ("G2", "trivial"), ("G2", "c2:inner"), ("G2", "c3:inner"),
)

TABLE_MODELS = ("trivial", "c2:inner", "c2:outer", "c3:inner")
TABLE_C3_MAX_RANK = 6  # c3:inner above rank 6 is left out for the run budget
EXTRA_TABLES = (("D4", "s3"), ("D4", "c3:outer"))
GOLDEN = {
    "A1/trivial": "a1_trivial.json",
    "A1/c2:inner": "a1_c2inner.json",
    "A2/c3:inner": "a2_c3inner.json",
}
TABLE_EQUIV_MAX_RANK = 4  # above rank 4 one query can take minutes (E8)
EQUIV_QUERIES = 100

REDUCTION_TYPES = ("A1", "A2", "B2", "C2", "A3", "C3", "B3")
REDUCTION_TRIALS_PER_TYPE = 10
SHAPIRO_BASES = ("A1", "A2", "G2")
TRANSFER_EQUIV_TYPES = ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3")

STAGES = {
    "oracle-sweep": ("bijection", "local_global", "restricted_search"),
    "tables": ("classify", "equiv"),
    "transfer": ("reduction", "shapiro", "equiv"),
}


def label(type_name, model):
    return f"{type_name}/{model}"


def _rng(seed, *parts):
    # str seeds hash through sha512, so the stream is the same in every process
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def load_expected():
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


# -- configuration lists ---------------------------------------------------------


def table_specs():
    """Every classification table of the tables workload, in a fixed order."""
    from endatlas.errors import InvalidInput
    from endatlas.galois import build_galois_model
    from endatlas.rootsys import ALL_TYPES_THROUGH_RANK_8, build_root_system

    out = []
    for ct in ALL_TYPES_THROUGH_RANK_8:
        rs = build_root_system(ct)
        for model in TABLE_MODELS:
            if model == "c3:inner" and ct.rank > TABLE_C3_MAX_RANK:
                continue
            try:
                build_galois_model(model, rs)
            except InvalidInput:
                continue  # e.g. c2:outer on a type without a diagram flip
            out.append((str(ct), model))
    return out + list(EXTRA_TABLES)


def _models_for(type_name):
    return ("trivial", "c2:inner", "c3:inner") + (
        ("c2:outer",) if type_name in ("A2", "A3") else ()
    )


def setup_types(workload):
    """(type, models, enumerate W?) for the caches a workload fills in set-up."""
    if workload == "oracle-sweep":
        by_type = {}
        for t, m in ORACLE_CONFIGS:
            by_type.setdefault(t, []).append(m)
        return [(t, tuple(ms), True) for t, ms in by_type.items()]
    if workload == "tables":
        by_type = {}
        for t, m in table_specs():
            by_type.setdefault(t, []).append(m)
        return [(t, tuple(ms), False) for t, ms in by_type.items()]
    types = dict.fromkeys(REDUCTION_TYPES + SHAPIRO_BASES + TRANSFER_EQUIV_TYPES)
    return [(t, _models_for(t), True) for t in types]


def setup(workload):
    """Fill the caches a fresh endatlas process fills before its first answer."""
    from endatlas.galois import build_galois_model
    from endatlas.rootsys import build_root_system
    from endatlas.weyl import enumerate_weyl, omega_group

    for type_name, models, with_weyl in setup_types(workload):
        rs = build_root_system(type_name)
        omega_group(rs)
        if with_weyl:
            enumerate_weyl(rs)
        for model in models:
            build_galois_model(model, rs)


# -- step generation (untimed) ------------------------------------------------------


def prepare(workload, seed, workdir):
    """The workload's steps for this seed; generated inputs go under workdir."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "oracle-sweep":
        return _prepare_oracle(seed)
    if workload == "tables":
        return _prepare_tables(seed, workdir)
    if workload == "transfer":
        return _prepare_transfer(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _prepare_oracle(seed):
    from endatlas.galois import build_galois_model, places
    from endatlas.rootsys import build_root_system

    # The seed orders the types; within a type the order stays fixed, because
    # the first configuration of a type fills the Weyl inverse caches that the
    # later ones reuse, and a changing payer would move the call latencies.
    groups = {}
    for t, m in ORACLE_CONFIGS:
        groups.setdefault(t, []).append(m)
    types = list(groups)
    _rng(seed, "oracle-sweep").shuffle(types)
    steps = []
    for t in types:
        for m in groups[t]:
            galois = build_galois_model(m, build_root_system(t))
            steps.append({"stage": "bijection", "type": t, "galois": m})
            steps.append({"stage": "local_global", "type": t, "galois": m})
            for p in places(galois):
                if p.generator != 0:
                    steps.append({"stage": "restricted_search", "type": t, "galois": m,
                                  "place": p.name(galois)})
            steps.append({"stage": "restricted_search", "type": t, "galois": m,
                          "place": "remark"})
    return steps


def _write_datum(path, datum):
    from endatlas.serialize import datum_to_dict, dumps

    path.write_text(dumps(datum_to_dict(datum)), encoding="utf-8")
    return str(path)


def _prepare_tables(seed, workdir):
    from endatlas.endodata import raw_form, transport_datum
    from endatlas.elliptic import classify_elliptic
    from endatlas.galois import build_galois_model
    from endatlas.rootsys import build_root_system
    from endatlas.weyl import enumerate_weyl

    specs = table_specs()
    classify = [{"stage": "classify", "type": t, "galois": m} for t, m in specs]

    # Round robin over the rank <= 4 tables in a fixed order, taking each
    # table's classes in turn: the representative against a conjugate of
    # itself (equivalent), and, where the table has two classes or more,
    # against a conjugate of another class's representative (inequivalent).
    # The seed picks the other class and the conjugating elements only.
    tables = []
    for t, m in specs:
        rs = build_root_system(t)
        if rs.rank <= TABLE_EQUIV_MAX_RANK:
            report = classify_elliptic(rs, build_galois_model(m, rs))
            tables.append((t, m, [e.datum for e in report.classes], enumerate_weyl(rs)))
    rng = _rng(seed, "tables")
    equiv = []
    qdir = workdir / "equiv"
    qdir.mkdir(exist_ok=True)
    for rnd in count():
        if len(equiv) >= EQUIV_QUERIES:
            break
        for t, m, reps, weyl in tables:
            if len(equiv) >= EQUIV_QUERIES:
                break
            i = rnd % len(reps)
            partners = [(i, 0)]
            if len(reps) > 1:
                partners.append((rng.choice([j for j in range(len(reps)) if j != i]), 1))
            for j, expect in partners:
                n = len(equiv)
                a = _write_datum(qdir / f"q{n}a.json", reps[i])
                conj = transport_datum(raw_form(reps[j]), rng.choice(weyl))
                b = _write_datum(qdir / f"q{n}b.json", conj)
                equiv.append({"stage": "equiv", "label": label(t, m), "a": a, "b": b,
                              "expect": expect})
    steps = classify + equiv[:EQUIV_QUERIES]
    rng.shuffle(steps)
    return steps


def _random_free_datum(rng, rs, galois, weyl, n_gens):
    """Data whose torus element has a free part, drawn as the reduction suite
    draws them; one per cocycle family fixing that element."""
    from endatlas.endodata import EndoscopicDatum, standard_bprime_base
    from endatlas.suites import _families_fixing
    from endatlas.torus import TorusElement

    while True:
        torsion = [Fraction(rng.randrange(0, 6), rng.choice((1, 2, 3, 4, 6)))
                   for _ in range(rs.rank)]
        free = [tuple(Fraction(rng.randrange(-2, 3)) for _ in range(n_gens))
                for _ in range(rs.rank)]
        if not any(any(f) for f in free):
            free[rng.randrange(rs.rank)] = (Fraction(1),) + (Fraction(0),) * (n_gens - 1)
        s = TorusElement(torsion, free)
        families = _families_fixing(rs, galois, s, weyl)
        if families:
            return [
                EndoscopicDatum(rs, galois, s, f, standard_bprime_base(rs, s), _validate=False)
                for f in families
            ]


def _prepare_transfer(seed, workdir):
    from endatlas.endodata import equivalent_bruteforce, transport_datum
    from endatlas.galois import build_galois_model
    from endatlas.rootsys import build_root_system
    from endatlas.serialize import load_datum
    from endatlas.weyl import enumerate_weyl

    rng = _rng(seed, "transfer")
    steps = []
    for t in REDUCTION_TYPES:
        steps.append({"stage": "reduction", "type": t, "trials": REDUCTION_TRIALS_PER_TYPE,
                      "seed": rng.randrange(2**31)})
    for base in SHAPIRO_BASES:
        steps.append({"stage": "shapiro", "base": base})

    # Round robin over the types, each round with the next Galois model of
    # the type and alternately one and two free generators: a datum against a
    # conjugate of itself (equivalent), and against a conjugate of a datum
    # with the same s and a seeded family, whose verdict the brute-force
    # oracle fixes here.  The seed picks s, the families and the conjugators.
    qdir = workdir / "equiv"
    qdir.mkdir(exist_ok=True)
    equiv = []
    for rnd in count():
        if len(equiv) >= EQUIV_QUERIES:
            break
        for t in TRANSFER_EQUIV_TYPES:
            if len(equiv) >= EQUIV_QUERIES:
                break
            rs = build_root_system(t)
            weyl = enumerate_weyl(rs)
            models = _models_for(t)
            model = models[rnd % len(models)]
            data = _random_free_datum(rng, rs, build_galois_model(model, rs), weyl,
                                      n_gens=1 + rnd % 2)
            first = data[0]
            other = rng.choice(data)
            for partner, oracle in ((first, False), (other, True)):
                n = len(equiv)
                a = _write_datum(qdir / f"q{n}a.json", first)
                b = _write_datum(qdir / f"q{n}b.json",
                                 transport_datum(partner, rng.choice(weyl)))
                expect = 0
                if oracle:
                    found = equivalent_bruteforce(load_datum(a), load_datum(b))
                    expect = 0 if found is not None else 1
                equiv.append({"stage": "equiv", "label": label(t, model), "a": a, "b": b,
                              "expect": expect})
    rng.shuffle(equiv)
    return steps + equiv


# -- timed calls ---------------------------------------------------------------------


def _cli(argv):
    from endatlas import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def inputs(step):
    """Arguments built before the clock starts: model, places and bound of a search."""
    if step["stage"] != "restricted_search":
        return None
    from endatlas.galois import build_galois_model, places
    from endatlas.rootsys import build_root_system
    from endatlas.suites import default_order_bound

    rs = build_root_system(step["type"])
    galois = build_galois_model(step["galois"], rs)
    all_places = places(galois)
    if step["place"] == "remark":
        subset = all_places
    else:
        subset = [p for p in all_places if p.name(galois) == step["place"]]
    return rs, galois, subset, default_order_bound(rs, galois)


def call(step, prepared):
    """The timed call of one step; returns its raw output."""
    from endatlas import localglobal, suites

    stage = step["stage"]
    if stage == "bijection":
        return suites.bijection_suite(step["type"], step["galois"])
    if stage == "local_global":
        return suites.local_global_suite(step["type"], step["galois"])
    if stage == "restricted_search":
        rs, galois, subset, bound = prepared
        cert = localglobal.counterexample_search(
            rs, galois, subset, bound, remark_mode=step["place"] == "remark"
        )
        return (cert, galois)
    if stage == "classify":
        return _cli(["classify", "--type", step["type"], "--galois", step["galois"],
                     "--format", "json"])
    if stage == "equiv":
        return _cli(["equiv", step["a"], step["b"]])
    if stage == "reduction":
        return suites.reduction_suite(
            n_trials=step["trials"], seed=step["seed"], types=(step["type"],)
        )
    if stage == "shapiro":
        return suites.shapiro_suite((step["base"],))
    raise ValueError(f"unknown stage {stage!r}")


def step_label(step):
    if step["stage"] in ("bijection", "local_global", "classify"):
        return label(step["type"], step["galois"])
    if step["stage"] == "restricted_search":
        return f"{label(step['type'], step['galois'])}@{step['place']}"
    if step["stage"] == "reduction":
        return f"{step['type']}#{step['seed']}"
    if step["stage"] == "shapiro":
        return step["base"]
    return f"{step['label']}:{Path(step['a']).name}"


def digest_text(step, output):
    """Canonical text of an output; identical outputs give identical text."""
    from endatlas.serialize import certificate_to_dict, dumps

    stage = step["stage"]
    if stage in ("classify", "equiv"):
        return f"{output['exit']}\n{output['stdout']}"
    if stage == "restricted_search":
        cert, galois = output
        return "none" if cert is None else dumps(certificate_to_dict(cert, galois))
    return dumps({"name": output.name, "ok": output.ok, "details": output.details,
                  "failures": output.failures})


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(step, output, expected):
    """None when the output is right, else a one-line reason."""
    stage = step["stage"]
    name = step_label(step)
    if stage in ("bijection", "local_global", "reduction", "shapiro"):
        if not output.ok:
            return f"{stage} {name}: ok is false: {output.failures[:3]}"
        if stage == "bijection" and output.details["classes"] != output.details["inventory"]:
            return f"bijection {name}: {output.details['classes']} classes but " \
                   f"{output.details['inventory']} inventory data"
        if stage == "reduction" and output.details["trials"] != step["trials"]:
            return f"reduction {name}: ran {output.details['trials']} of {step['trials']} trials"
        return None
    if stage == "restricted_search":
        want = expected["restricted_search"].get(name)
        got = sha256(digest_text(step, output))
        return None if got == want else f"restricted search {name}: outcome digest changed"
    if stage == "classify":
        if output["exit"] != 0:
            return f"classify {name}: exit code {output['exit']}"
        if sha256(output["stdout"]) != expected["classify"].get(name):
            return f"classify {name}: output digest differs from expected.json"
        golden = GOLDEN.get(name)
        if golden is not None:
            frozen = json.loads((GOLDEN_DIR / golden).read_text(encoding="utf-8"))
            if json.loads(output["stdout"]) != frozen:
                return f"classify {name}: differs from tests/golden/{golden}"
        return None
    if stage == "equiv":
        if output["exit"] != step["expect"]:
            return f"equiv {name}: exit code {output['exit']}, expected {step['expect']}"
        return None
    raise ValueError(f"unknown stage {stage!r}")
