"""The finite-order replacement of torus elements with free coordinates."""

from fractions import Fraction

import pytest

from endatlas.errors import InvalidInput
from endatlas.galois import build_galois_model
from endatlas.rootsys import build_root_system
from endatlas.torus import TorusElement
from endatlas.weyl import enumerate_delta_automorphisms, enumerate_weyl, torus_action, weyl_membership
from endatlas.endodata import make_datum
from endatlas.reduction import (
    build_reduction_plan,
    finite_order_reduction,
    fixers_agree,
    reduction_preserves_equivalence,
)

F = Fraction


def _all_torus_automorphisms(rs):
    return [
        w * aut.lattice(rs)
        for w in enumerate_weyl(rs)
        for aut in enumerate_delta_automorphisms(rs)
    ]


def test_a1_worked_example(a1):
    """alpha1(s) = (1/2, x): one class, b = 1, c = 1, d = 3, alpha1(t) = 1/3."""
    g = build_galois_model("trivial", a1)
    s = TorusElement([F(1, 2)], [(F(1),)])
    d1 = make_datum(a1, g, s, {})
    r1, r2, plan = finite_order_reduction(d1, d1)
    assert not plan.bypass
    assert plan.classes == ((1,),) and plan.class_reps == (1,)
    assert (plan.b, plan.c, plan.d) == (1, 1, 3)
    assert plan.t.torsion == (F(1, 3),)
    assert r1.s == plan.t and r1.s.is_finite_order()


def test_a1_fixer_sets_coincide(a1):
    g = build_galois_model("trivial", a1)
    s = TorusElement([F(1, 2)], [(F(1),)])
    d1 = make_datum(a1, g, s, {})
    _, _, plan = finite_order_reduction(d1, d1)
    s_std = torus_action(plan.standardizer, s)
    maps = _all_torus_automorphisms(a1)
    assert fixers_agree(a1, s_std, plan.t, maps)
    fixers = [w for w in maps if torus_action(w, s_std) == s_std]
    assert len(fixers) == 1  # only the identity


def test_bypass_for_finite_order(a1):
    g = build_galois_model("trivial", a1)
    d = make_datum(a1, g, TorusElement([F(1, 2)]), {})
    r1, r2, plan = finite_order_reduction(d, d)
    assert plan.bypass and r1 is d and r2 is d
    assert plan.t == d.s


def test_distinct_s_rejected(a1):
    g = build_galois_model("trivial", a1)
    d1 = make_datum(a1, g, TorusElement([F(0)], [(F(1),)]), {})
    d2 = make_datum(a1, g, TorusElement([F(0)], [(F(2),)]), {})
    with pytest.raises(InvalidInput, match="common"):
        finite_order_reduction(d1, d2)


def test_plan_level_sets_partition(a2):
    g = build_galois_model("trivial", a2)
    s = TorusElement([F(1, 3), F(0)], [(F(1), F(0)), (F(0), F(1))])
    d = make_datum(a2, g, s, {})
    _, _, plan = finite_order_reduction(d, d)
    s_m, s_u, s_ubar = plan.s_level_sets
    assert s_m == plan.sigma_m
    assert s_u == plan.sigma_p - plan.sigma_m
    assert s_ubar == {tuple(-x for x in r) for r in plan.sigma_p - plan.sigma_m}
    assert not (s_m & s_u) and not (s_m & s_ubar) and not (s_u & s_ubar)
    assert s_m | s_u | s_ubar == a2.all_roots


def test_layer_preservation_by_fixers(a2):
    """Automorphisms fixing s or t preserve the parabolic halves (claims 1-2)."""
    g = build_galois_model("trivial", a2)
    s = TorusElement([F(1, 2), F(1, 4)], [(F(1),), (F(1),)])
    d = make_datum(a2, g, s, {})
    _, _, plan = finite_order_reduction(d, d)
    s_std = torus_action(plan.standardizer, s)
    for u in _all_torus_automorphisms(a2):
        if torus_action(u, s_std) == s_std or torus_action(u, plan.t) == plan.t:
            assert {u(r) for r in plan.sigma_p} == set(plan.sigma_p)
            assert {u(r) for r in plan.sigma_m} == set(plan.sigma_m)


def test_class_constancy_of_diagram_parts(a2):
    """The Delta-preserving part of any fixer stabilizes each free-part class."""
    g = build_galois_model("trivial", a2)
    s = TorusElement([F(0), F(0)], [(F(1),), (F(1),)])
    d = make_datum(a2, g, s, {})
    _, _, plan = finite_order_reduction(d, d)
    s_std = torus_action(plan.standardizer, s)
    for u in _all_torus_automorphisms(a2):
        if torus_action(u, s_std) == s_std or torus_action(u, plan.t) == plan.t:
            _, dpart = weyl_membership(a2, u)
            for cl in plan.classes:
                assert frozenset(dpart(i) for i in cl) == frozenset(cl)


def test_reduction_preserves_equivalence_identical(a1):
    g = build_galois_model("trivial", a1)
    s = TorusElement([F(1, 2)], [(F(1),)])
    d = make_datum(a1, g, s, {})
    assert reduction_preserves_equivalence(d, d)


def test_reduction_preserves_equivalence_with_cocycles(a1):
    """Omega-conjugate cocycles over a free-part s: equivalent on both sides."""
    g = build_galois_model("c2:inner", a1)
    s = TorusElement([F(0)], [(F(1),)])
    # over Z/2 with trivial action, s with a free part is fixed only by the
    # identity, so the only family is trivial; equivalence is immediate
    d1 = make_datum(a1, g, s, {})
    d2 = make_datum(a1, g, s, {})
    assert reduction_preserves_equivalence(d1, d2)


def test_reduction_preserves_inequivalence(a2):
    """Inequivalent free-part data stay inequivalent after reduction."""
    g = build_galois_model("trivial", a2)
    s1 = TorusElement([F(0), F(0)], [(F(1),), (F(1),)])
    s2 = TorusElement([F(1, 2), F(1, 2)], [(F(1),), (F(1),)])
    d1 = make_datum(a2, g, s1, {})
    d2 = make_datum(a2, g, s2, {})
    assert reduction_preserves_equivalence(d1, d2)


def test_plan_requires_standardization(a2):
    """Free parts with mixed signs on the positive roots need the transport."""
    s = TorusElement([F(0), F(0)], [(F(1),), (F(-1),)])
    with pytest.raises(Exception):
        build_reduction_plan(a2, s)  # not standardized: the Levi is not standard


def test_fixers_agree_on_rank_four_sampled():
    """Claim-3 holds on D4 for a sampled Weyl family (full W is 192 anyway)."""
    import random

    rs = build_root_system("D4")
    g = build_galois_model("trivial", rs)
    s = TorusElement([F(1, 2), F(0), F(1, 3), F(0)], [(F(1),), (F(0),), (F(0),), (F(1),)])
    d = make_datum(rs, g, s, {})
    _, _, plan = finite_order_reduction(d, d)
    s_std = torus_action(plan.standardizer, s)
    rng = random.Random(7)
    weyl = enumerate_weyl(rs)
    sample = [rng.choice(weyl) for _ in range(200)]
    auts = enumerate_delta_automorphisms(rs)
    maps = [w * aut.lattice(rs) for w in sample for aut in auts]
    assert fixers_agree(rs, s_std, plan.t, maps)


def test_the_reduction_suite_builds_each_trial_plan_once(monkeypatch):
    """The plan depends on s alone, and the transporter of the equivalence
    check fixes s, so that check reuses the trial's plan."""
    from endatlas import reduction, suites

    built = []

    def counting(rs, s):
        built.append(s)
        return build_reduction_plan(rs, s)

    monkeypatch.setattr(reduction, "build_reduction_plan", counting)
    result = suites.reduction_suite(n_trials=12, seed=5)
    assert result.ok, result.failures
    assert 0 < len(built) <= 12


def test_a_reused_plan_reduces_to_the_same_data(a2):
    g = build_galois_model("c2:inner", a2)
    s = TorusElement([F(1, 3), F(0)], [(F(1),), (F(0),)])
    d = make_datum(a2, g, s, {})
    r1, r2, plan = finite_order_reduction(d, d)
    q1, q2, again = finite_order_reduction(d, d, plan)
    assert again is plan
    assert (q1.key(), q2.key()) == (r1.key(), r2.key())
    assert reduction_preserves_equivalence(d, d, plan)
