"""Exact torus-element arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endatlas.errors import InvalidInput
from endatlas.rootsys import build_root_system
from endatlas.torus import TorusElement
from endatlas.weyl import WeylElement, simple_reflections, torus_action

F = Fraction

fractions = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(fractions, min_size=2, max_size=4),
    st.data(),
)
def test_evaluation_is_additive(torsion, data):
    """value_at is linear over the lattice: torsion mod 1, free exactly."""
    rank = len(torsion)
    free = data.draw(
        st.lists(
            st.tuples(fractions, fractions), min_size=rank, max_size=rank
        )
    )
    s = TorusElement(torsion, free)
    vec = st.tuples(*(st.integers(min_value=-3, max_value=3) for _ in range(rank)))
    a = data.draw(vec)
    b = data.draw(vec)
    ta, fa = s.value_at(a)
    tb, fb = s.value_at(b)
    tsum, fsum = s.value_at(tuple(x + y for x, y in zip(a, b)))
    assert (ta + tb - tsum).denominator == 1
    assert tuple(x + y for x, y in zip(fa, fb)) == fsum


def test_torsion_reduced_mod_one():
    s = TorusElement([F(5, 2), F(-1, 3)])
    assert s.torsion == (F(1, 2), F(2, 3))


def test_order_and_finiteness():
    s = TorusElement([F(1, 2), F(1, 3)])
    assert s.is_finite_order() and s.order() == 6
    t = TorusElement([F(0)], [(F(1),)])
    assert not t.is_finite_order()
    with pytest.raises(InvalidInput):
        t.order()


def test_free_parts_must_align():
    with pytest.raises(InvalidInput):
        TorusElement([F(0), F(0)], [(F(1),), (F(1), F(2))])
    with pytest.raises(InvalidInput):
        TorusElement([F(0)], [(F(1),), (F(1),)])


def test_identity():
    assert TorusElement.identity(3).is_identity()
    assert not TorusElement([F(1, 2), F(0)]).is_identity()


def fraction_value_at(s, vec):
    """Reference evaluation: the Fraction formula, coordinate by coordinate."""
    t = sum((c * ti for c, ti in zip(vec, s.torsion)), F(0))
    free = tuple(
        sum((c * fi[k] for c, fi in zip(vec, s.free)), F(0)) for k in range(s.n_generators)
    )
    return t - (t.numerator // t.denominator), free


@st.composite
def torus_elements(draw, rank):
    n_gens = draw(st.integers(0, 2))
    torsion = draw(st.lists(fractions, min_size=rank, max_size=rank))
    free = draw(st.lists(
        st.tuples(*[fractions] * n_gens), min_size=rank, max_size=rank
    ))
    return TorusElement(torsion, free)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        torus_elements(n), st.tuples(*[st.integers(-4, 4)] * n)
    )
))
def test_value_at_matches_fraction_formula(case):
    s, vec = case
    t, free = s.value_at(vec)
    assert (t, free) == fraction_value_at(s, vec)
    assert type(t) is F and all(type(x) is F for x in free)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3", "C3", "D4"]).flatmap(
    lambda name: st.tuples(
        st.just(build_root_system(name)),
        st.lists(st.integers(0, 7), max_size=10),
        torus_elements(build_root_system(name).rank),
    )
))
def test_torus_action_matches_fraction_formula(case):
    """w.s has the oracle's torsion and free parts, exactly as the public
    constructor would normalize them."""
    rs, word, s = case
    w = WeylElement.identity(rs.rank)
    for j in word:
        w = simple_reflections(rs)[j % rs.rank] * w
    moved = torus_action(w, s)
    values = [fraction_value_at(s, row) for row in w.inverse().images]
    expected = TorusElement([t for t, _ in values], [f for _, f in values])
    assert (moved.torsion, moved.free) == (expected.torsion, expected.free)
    assert moved == expected and hash(moved) == hash(expected)
    assert torus_action(w.inverse(), moved) == s
