"""The integer elimination and what is built on it, against Fraction references."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from endatlas._linalg import fixed_space_dimension, integer_cone_order, rank, solve_in_basis
from endatlas.rootsys import build_root_system
from endatlas.weyl import WeylElement, simple_reflections

from conftest import fraction_rank, fraction_solve


@st.composite
def vector_sets(draw, max_vectors=5):
    """Integer vectors of one length, with dependent ones mixed in: some are
    combinations of the others."""
    dim = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    vectors = draw(st.lists(vec, max_size=max_vectors))
    for _ in range(draw(st.integers(0, 2))):
        if vectors:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            f, g = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            vectors.append([f * x + g * y for x, y in zip(a, b)])
    return dim, [tuple(v) for v in vectors]


@settings(max_examples=300, deadline=None)
@given(vector_sets(max_vectors=7))
def test_rank_matches_fraction_rank(case):
    _, vectors = case
    assert rank(vectors) == fraction_rank(vectors)


def solve_outcome(fn, basis, target):
    try:
        return fn(basis, target)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(vector_sets(), st.data())
def test_solve_in_basis_matches_fraction_solve(case, data):
    """Dependent bases raise, out-of-span targets give None, the rest agree."""
    dim, basis = case
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    in_span = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(dim))
    anywhere = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
    for target in (in_span, anywhere):
        got = solve_outcome(solve_in_basis, basis, target)
        assert got == solve_outcome(fraction_solve, basis, target)
        assert got is None or isinstance(got, str) or all(isinstance(x, Fraction) for x in got)


@settings(max_examples=200, deadline=None)
@given(vector_sets(), st.data())
def test_solve_in_basis_takes_fractions(case, data):
    """Fraction input, as the free-exponent lattices pass it, is solved exactly."""
    dim, basis = case
    den = data.draw(st.integers(1, 12))
    scaled = [tuple(Fraction(x, den) for x in b) for b in basis]
    target = tuple(Fraction(x, data.draw(st.integers(1, 6)))
                   for x in data.draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)))
    assert solve_outcome(solve_in_basis, scaled, target) == solve_outcome(
        fraction_solve, scaled, target
    )


@settings(max_examples=200, deadline=None)
@given(vector_sets(max_vectors=4), st.data())
def test_integer_cone_order_matches_fraction_solve(case, data):
    dim, basis = case
    if fraction_rank(basis) < len(basis):
        return
    leq = integer_cone_order(basis, dim)
    vec = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim).map(tuple)
    a = data.draw(vec)
    coeffs = data.draw(st.lists(st.integers(-2, 3), min_size=len(basis), max_size=len(basis)))
    above = tuple(x + sum(c * v[i] for c, v in zip(coeffs, basis)) for i, x in enumerate(a))
    for b in (above, data.draw(vec)):
        c = fraction_solve(basis, tuple(y - x for x, y in zip(a, b)))
        want = c is not None and all(x >= 0 and x.denominator == 1 for x in c)
        assert leq(a, b) == want


def fraction_fixed_space_dimension(matrices, dim):
    """Reference: the rank of the group average, the projector onto the fixed space."""
    g = len(matrices)
    avg = [[sum(Fraction(m[i][j], g) for m in matrices) for j in range(dim)] for i in range(dim)]
    return fraction_rank(avg)


@st.composite
def weyl_subgroups(draw):
    """The subgroup generated by one or two Weyl elements given as words."""
    rs = build_root_system(draw(st.sampled_from(["A1", "A2", "B2", "G2", "A3", "C3"])))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        w = WeylElement.identity(rs.rank)
        for j in draw(st.lists(st.integers(0, rs.rank - 1), max_size=6)):
            w = simple_reflections(rs)[j] * w
        gens.append(w)
    group = {WeylElement.identity(rs.rank)}
    frontier = list(group)
    while frontier:
        frontier = [h for h in {g * x for x in frontier for g in gens} if h not in group]
        group.update(frontier)
    return rs.rank, [w.images for w in group]


@settings(max_examples=100, deadline=None)
@given(weyl_subgroups())
def test_fixed_space_dimension_matches_the_averaged_projector(case):
    dim, matrices = case
    assert fixed_space_dimension(matrices, dim) == fraction_fixed_space_dimension(matrices, dim)
