"""Verification suites shared by the command line and the acceptance tests.

Each suite returns a result object whose ``ok`` is True exactly when zero
falsifiers were found within the configured caps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import DEFAULT_WORK_CAP, CapExceeded
from .galois import GaloisModel, build_galois_model
from .rootsys import RootSystem, build_root_system
from .torus import TorusElement
from .weyl import enumerate_delta_automorphisms, enumerate_weyl
from .weyl import carries, torus_action, weyl_membership
from .endodata import EndoscopicDatum, equivalent, is_elliptic, standard_bprime_base
from .elliptic import (
    _families_fixing,
    brute_force_inventory,
    classify_elliptic,
    enumerate_pairs,
    match_classification,
    verify_sigma_structure,
)
from .localglobal import exhaustive_local_global
from .reduction import (
    finite_order_reduction,
    fixers_agree,
    make_induced_model,
    reduction_preserves_equivalence,
    shapiro_descend,
    shapiro_induce,
)


@dataclass
class SuiteResult:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def default_order_bound(rs: RootSystem, galois: GaloisModel) -> int:
    """The least multiple of every constructed order over the enumerated pairs
    that is at least twice the largest: the inventory scans the grid
    (1/B)^rank, which holds the elements of order n exactly when n divides B."""
    orders = {sum(rs.marks[i] for i in pair.orbit) for pair in enumerate_pairs(rs, galois)}
    step = lcm(*orders)
    return -(-2 * max(orders) // step) * step


def bijection_suite(type_str: str, galois_spec, max_order=None, cap: int = DEFAULT_WORK_CAP) -> SuiteResult:
    """classify_elliptic against the brute-force inventory, plus the round trip."""
    rs = build_root_system(type_str)
    galois = build_galois_model(galois_spec, rs)
    bound = default_order_bound(rs, galois) if max_order is None else max_order
    report = classify_elliptic(rs, galois)
    inventory = brute_force_inventory(rs, galois, bound, cap=cap)
    failures = []
    if not match_classification(report, inventory):
        failures.append(
            f"classification ({report.class_count} classes) does not match the "
            f"inventory ({len(inventory)} data)"
        )
    structure = [
        (pair, verify_sigma_structure(rs, galois, pair))
        for pair in enumerate_pairs(rs, galois)
    ]
    for pair, rep in structure:
        if not rep.ok:
            failures.append(f"pair {sorted(pair.orbit)}: {'; '.join(rep.violations)}")
    return SuiteResult(
        name="bijection",
        ok=not failures,
        details={
            "classes": report.class_count,
            "inventory": len(inventory),
            "order_bound": bound,
            "pairs_checked": len(structure),
        },
        failures=failures,
    )


def local_global_suite(type_str: str, galois_spec, max_order=None, cap: int = DEFAULT_WORK_CAP) -> SuiteResult:
    """Every pair of the bounded inventory, compared at every place and
    globally.  With every place in the family a counterexample certificate
    is exactly an inconsistent verdict, so the falsifiers decide the check."""
    rs = build_root_system(type_str)
    galois = build_galois_model(galois_spec, rs)
    bound = default_order_bound(rs, galois) if max_order is None else max_order
    report = exhaustive_local_global(rs, galois, bound, cap=cap)
    failures = [f"inconsistent pair: {v}" for v in report.falsifiers]
    return SuiteResult(
        name="local-global",
        ok=not failures,
        details={
            "data": report.n_data,
            "pairs": report.n_pairs,
            "consistent": report.n_consistent,
            "order_bound": bound,
        },
        failures=failures,
    )


# -- randomized reduction suite ----------------------------------------------------


_REDUCTION_TYPES = ("A1", "A2", "B2", "C2", "A3", "C3", "B3")


def _random_torus(rng: random.Random, rank: int, n_gens: int, force_free: bool) -> TorusElement:
    torsion = [Fraction(rng.randrange(0, 6), rng.choice((1, 2, 3, 4, 6))) for _ in range(rank)]
    free = [
        tuple(Fraction(rng.randrange(-2, 3)) for _ in range(n_gens)) for _ in range(rank)
    ]
    if force_free and not any(any(f) for f in free):
        i = rng.randrange(rank)
        free[i] = tuple(
            Fraction(1) if k == 0 else Fraction(0) for k in range(n_gens)
        )
    return TorusElement(torsion, free)


def reduction_suite(n_trials: int = 200, seed: int = 20240 , types=_REDUCTION_TYPES) -> SuiteResult:
    """Randomized data with free coordinates: finiteness of t, fixer equality,

    class stability of the diagram parts, and agreement of equivalence verdicts
    before and after the reduction."""
    rng = random.Random(seed)
    failures = []
    trials = 0
    while trials < n_trials:
        type_str = rng.choice(types)
        rs = build_root_system(type_str)
        galois_names = ["trivial", "c2:inner", "c3:inner"]
        if type_str in ("A2", "A3"):
            galois_names.append("c2:outer")
        galois = build_galois_model(rng.choice(galois_names), rs)
        n_gens = rng.choice((1, 2))
        force_free = rng.random() < 0.85
        s = _random_torus(rng, rs.rank, n_gens, force_free)
        weyl_list = enumerate_weyl(rs)
        fams = _families_fixing(rs, galois, s, weyl_list)
        if not fams:
            continue
        f1 = rng.choice(fams)
        f2 = rng.choice(fams)
        d1 = EndoscopicDatum(
            rs, galois, s, f1, standard_bprime_base(rs, s), _validate=False
        )
        d2 = EndoscopicDatum(
            rs, galois, s, f2, standard_bprime_base(rs, s), _validate=False
        )
        trials += 1
        tag = f"trial {trials} ({type_str}, |Gamma|={len(galois)})"
        r1, r2, plan = finite_order_reduction(d1, d2)
        if not plan.t.is_finite_order():
            failures.append(f"{tag}: t has infinite order")
            continue
        if not plan.bypass:
            s_std = torus_action(plan.standardizer, s)
            all_maps = [
                w * aut.lattice(rs)
                for w in weyl_list
                for aut in enumerate_delta_automorphisms(rs)
            ]
            if not fixers_agree(rs, s_std, plan.t, all_maps):
                failures.append(f"{tag}: fixer sets of s and t differ")
            classes = [frozenset(plan.classes[k]) for k in range(len(plan.classes))]
            for u in all_maps:
                if carries(u, s_std, s_std) or carries(u, plan.t, plan.t):
                    _, dpart = weyl_membership(rs, u)
                    for cl in classes:
                        if frozenset(dpart(i) for i in cl) != cl:
                            failures.append(
                                f"{tag}: a diagram part moved a free-part class"
                            )
                            break
        if not reduction_preserves_equivalence(d1, d2, plan):
            failures.append(f"{tag}: equivalence verdicts changed under reduction")
    return SuiteResult(
        name="reduction",
        ok=not failures,
        details={"trials": trials},
        failures=failures,
    )


# -- shapiro suite -------------------------------------------------------------------


def shapiro_configurations(base_types=("A1", "A2")):
    """The (ambient, subgroup, base action) battery for the transfer checks."""
    from .galois import _cyclic, _s3

    z2n, z2t = _cyclic(2)
    z4n, z4t = _cyclic(4)
    s3n, s3t, _ = _s3()
    configs = []
    for t in base_types:
        rs = build_root_system(t)
        flips = [a for a in enumerate_delta_automorphisms(rs) if not a.is_identity()]
        # Z/2 with the trivial subgroup
        configs.append((t, "trivial", z2n, z2t, [0]))
        # Z/4 with its index-2 subgroup
        configs.append((t, "c2:inner", z4n, z4t, [0, 2]))
        # S3 with the index-2 (cyclic of order 3) subgroup
        configs.append((t, "c3:inner", s3n, s3t, [0, 1, 2]))
        # S3 with an index-3 (order 2) subgroup
        configs.append((t, "c2:inner", s3n, s3t, [0, 3]))
        if flips:
            configs.append((t, "c2:outer", s3n, s3t, [0, 3]))
    return configs


_BASE_ORDER_BOUND = 4


def _base_data_for(rs, galois):
    """A small pool of base data: the inventory of orders dividing
    ``_BASE_ORDER_BOUND``, or the principal datum where that exceeds the cap."""
    try:
        return brute_force_inventory(rs, galois, _BASE_ORDER_BOUND)
    except CapExceeded:
        from .endodata import principal_datum

        return [principal_datum(rs, galois)]


def shapiro_suite(base_types=("A1", "A2")) -> SuiteResult:
    failures = []
    n_configs = 0
    n_pairs = 0
    for t, base_spec, names, table, emb in shapiro_configurations(base_types):
        rs = build_root_system(t)
        base_galois = build_galois_model(base_spec, rs)
        model = make_induced_model(base_galois, names, table, emb)
        n_configs += 1
        pool = _base_data_for(rs, base_galois)
        tag = f"{t}/{base_spec} in {'|'.join(names)}"
        induced = [shapiro_induce(x, model) for x in pool]
        for x, y in zip(pool, induced):
            if is_elliptic(y) != is_elliptic(x):
                failures.append(f"{tag}: ellipticity did not transfer")
            back = shapiro_descend(y, model)
            if back != x:
                failures.append(f"{tag}: descend(induce(x)) differs from x")
            again = shapiro_induce(back, model)
            if equivalent(again, y) is None:
                failures.append(f"{tag}: induce(descend(y)) inequivalent to y")
        for i in range(len(pool)):
            for j in range(i, len(pool)):
                n_pairs += 1
                base_verdict = equivalent(pool[i], pool[j]) is not None
                if base_verdict != (equivalent(induced[i], induced[j]) is not None):
                    failures.append(f"{tag}: equivalence did not transfer (pair {i},{j})")
    return SuiteResult(
        name="shapiro",
        ok=not failures,
        details={"configurations": n_configs, "pairs": n_pairs},
        failures=failures,
    )
