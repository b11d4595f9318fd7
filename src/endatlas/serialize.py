"""JSON and Markdown emission with stable ordering, plus datum file parsing.

Fractions travel as strings "p/q"; Weyl elements as the list of images of the
simple roots in the Delta-basis; Omega values may be given as affine node
permutations.  Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidInput, is_integer
from .galois import GaloisModel, build_galois_model, model_to_dict, read_json
from .rootsys import build_root_system
from .torus import TorusElement
from .weyl import WeylElement
from .endodata import EndoscopicDatum, make_datum
from .elliptic import ClassificationReport


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_fraction(text) -> Fraction:
    if isinstance(text, float):
        raise InvalidInput(f"float {text!r} is not exact; write fractions as strings")
    if is_integer(text):
        return Fraction(text)
    text = str(text).strip()
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"malformed fraction {text!r}") from exc
    return f


def torus_to_dict(s: TorusElement) -> dict:
    return {
        "torsion": [fraction_str(t) for t in s.torsion],
        "free": [[fraction_str(x) for x in f] for f in s.free],
    }


def torus_from_dict(data: dict, rank: int) -> TorusElement:
    try:
        torsion, free = data["torsion"], data.get("free")
    except (KeyError, TypeError, AttributeError) as exc:
        raise InvalidInput(f"malformed torus element: {exc}") from exc
    # a string would iterate as its characters
    if not isinstance(torsion, list) or not (
        free is None or isinstance(free, list) and all(isinstance(f, list) for f in free)
    ):
        raise InvalidInput("torus element: torsion must be a list, free a list of lists")
    torsion = [parse_fraction(t) for t in torsion]
    if free is not None:
        free = [[parse_fraction(x) for x in f] for f in free]
    if len(torsion) != rank:
        raise InvalidInput(f"torus element has {len(torsion)} coordinates, need {rank}")
    if free is not None and not any(any(f) for f in free):
        free = None
    return TorusElement(torsion, free)


def weyl_to_list(w: WeylElement) -> list:
    return [list(row) for row in w.images]


def datum_to_dict(datum: EndoscopicDatum) -> dict:
    values = [datum.w_value(a) for a in range(len(datum.galois))]
    return {
        "type": str(datum.rs.type),
        "galois": model_to_dict(datum.galois),
        "s": torus_to_dict(datum.s),
        "cocycle": {
            name: weyl_to_list(w)
            for name, w in zip(datum.galois.names, values)
            if not w.is_identity()
        },
    }


def datum_from_dict(data: dict) -> EndoscopicDatum:
    try:
        type_str, galois_spec, s_spec = str(data["type"]), data["galois"], data["s"]
        cocycle = dict(data.get("cocycle", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed datum: {exc}") from exc
    rs = build_root_system(type_str)
    s = torus_from_dict(s_spec, rs.rank)
    galois = build_galois_model(galois_spec, rs)
    return make_datum(rs, galois, s, cocycle)


def load_datum(path: str) -> EndoscopicDatum:
    return datum_from_dict(read_json(path))


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- reports ---------------------------------------------------------------------


def report_to_dict(report: ClassificationReport) -> dict:
    rs = report.rs
    classes = []
    for e in report.classes:
        cocycle = {}
        for a, name in enumerate(report.galois.names):
            v = e.pair.cocycle.value(a)
            if not v.is_identity():
                cocycle[name] = list(v.perm)
        classes.append(
            {
                "pair": {
                    "cocycle": cocycle,
                    "orbit": [rs.node_name(i) for i in sorted(e.pair.orbit)],
                },
                "datum": datum_to_dict(e.datum),
                "d": e.d,
                "shape": e.shape,
                "dual_components": [
                    {"type": str(ct), "nodes": [rs.node_name(i) for i in nodes]}
                    for ct, nodes in e.dual_components
                ],
                "dual_action": {
                    report.galois.names[a]: {
                        rs.node_name(i): rs.node_name(j) for i, j in e.dual_action[a]
                    }
                    for a in range(len(report.galois.names))
                    if any(i != j for i, j in e.dual_action[a])
                },
                "out_size": e.out_size,
            }
        )
    return {
        "type": str(rs.type),
        "galois": model_to_dict(report.galois),
        "class_count": report.class_count,
        "classes": classes,
    }


def report_to_markdown(report: ClassificationReport) -> str:
    d = report_to_dict(report)
    lines = [
        f"# Elliptic classes for {d['type']} over "
        f"{'/'.join(d['galois']['elements'])}",
        "",
        f"Classes: {d['class_count']}",
        "",
        "| # | orbit | cocycle | s | d | shape | dual components | dual action | out |",
        "|---|-------|---------|---|---|-------|-----------------|-------------|-----|",
    ]
    for k, cl in enumerate(d["classes"]):
        orbit = " ".join(cl["pair"]["orbit"])
        coc = (
            "; ".join(f"{n}:{v}" for n, v in sorted(cl["pair"]["cocycle"].items()))
            or "trivial"
        )
        s = "(" + " ".join(cl["datum"]["s"]["torsion"]) + ")"
        dual = (
            " + ".join(
                f"{c['type']}({' '.join(c['nodes'])})" for c in cl["dual_components"]
            )
            or "-"
        )
        act = (
            "; ".join(
                f"{n}: " + " ".join(f"{a}>{b}" for a, b in sorted(m.items()))
                for n, m in sorted(cl["dual_action"].items())
            )
            or "-"
        )
        out = cl["out_size"] if cl["out_size"] is not None else "-"
        lines.append(
            f"| {k} | {orbit} | {coc} | {s} | {cl['d']} | {cl['shape']} | {dual} | {act} | {out} |"
        )
    lines.append("")
    return "\n".join(lines)


def witness_to_dict(witness) -> dict:
    if witness is None:
        return {"equivalent": False}
    return {"equivalent": True, "witness": weyl_to_list(witness)}


def plan_to_dict(plan) -> dict:
    if plan.bypass:
        return {"bypass": True, "t": torus_to_dict(plan.t)}
    return {
        "bypass": False,
        "standardizer": weyl_to_list(plan.standardizer),
        "r_basis": [[fraction_str(x) for x in row] for row in plan.r_basis],
        "sigma_p": sorted(list(map(list, plan.sigma_p))),
        "sigma_m": sorted(list(map(list, plan.sigma_m))),
        "delta_fixed": list(plan.delta_m_fixed),
        "delta_moved": list(plan.delta_m_moved),
        "classes": [list(c) for c in plan.classes],
        "class_reps": list(plan.class_reps),
        "b": plan.b,
        "c": plan.c,
        "d": plan.d,
        "t": torus_to_dict(plan.t),
    }


def certificate_to_dict(cert, galois: GaloisModel) -> dict:
    return {
        "datum1": datum_to_dict(cert.datum1),
        "datum2": datum_to_dict(cert.datum2),
        "places": [p.name(galois) for p in cert.place_family],
        "local_witnesses": [weyl_to_list(w) for w in cert.local_witnesses],
    }
