"""Base transport, the Weyl/diagram factorization, Omega, and the torus action."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endatlas.errors import CapExceeded, InvalidInput
from endatlas.rootsys import (
    ALL_TYPES_THROUGH_RANK_8,
    CartanType,
    RootSystem,
    build_root_system,
    product_root_system,
    root_sum,
    weyl_group_order,
)
from endatlas.torus import TorusElement
from endatlas.weyl import (
    DiagramAut,
    WeylElement,
    _descent_of,
    _transport_in_subsystem,
    alcove_form,
    alcove_omega,
    carries,
    enumerate_affine_automorphisms,
    enumerate_delta_automorphisms,
    enumerate_weyl,
    find_base_transport,
    free_dominance,
    is_base,
    omega_by_node,
    positive_system,
    simple_reflections,
    omega_group,
    torus_action,
    weyl_membership,
    weyl_part_if_member,
)

from conftest import (
    bfs_orbit_search,
    fraction_solve,
    omega_by_membership,
    omega_sending_zero_to,
    root_sweep_descent,
    set_descent,
)


def simple_reflection(rs, j):
    return WeylElement(
        tuple(rs.reflect_simple(j, rs.simple_roots[i]) for i in range(rs.rank))
    )


def test_transport_identity(a2):
    w = find_base_transport(a2, a2.simple_roots, a2.simple_roots)
    assert w.is_identity()


def test_transport_longest_element_vs_exhaustive(a2):
    neg = [tuple(-x for x in v) for v in a2.simple_roots]
    w = find_base_transport(a2, neg, a2.simple_roots)
    # oracle: the unique element over all |W| = 6 doing the job
    hits = [
        u
        for u in enumerate_weyl(a2)
        if {u(v) for v in neg} == set(a2.simple_roots)
    ]
    assert hits == [w]


def test_transport_simple_reflection_example(a2):
    # s2 sends Delta to {a1+a2, -a2}, so the transport back is s2 itself
    s2 = simple_reflection(a2, 1)
    assert {s2(v) for v in a2.simple_roots} == {(1, 1), (0, -1)}
    w = find_base_transport(a2, [(1, 1), (0, -1)], a2.simple_roots)
    assert w == s2


def test_transport_rejects_non_base(a2):
    assert not is_base(a2, [(1, 0), (1, 1)])
    with pytest.raises(InvalidInput):
        find_base_transport(a2, [(1, 0), (1, 1)], a2.simple_roots)


def test_membership_identity(a2):
    w, aut = weyl_membership(a2, WeylElement.identity(2))
    assert w.is_identity() and aut.is_identity()


def test_membership_negation_is_w0_times_flip(a2):
    wpart, dpart = weyl_membership(a2, WeylElement([(-1, 0), (0, -1)]))
    neg = [tuple(-x for x in v) for v in a2.simple_roots]
    assert {wpart(v) for v in a2.simple_roots} == set(neg)
    assert dpart.perm == (0, 2, 1)


def test_membership_triality_is_pure_diagram_part(d4):
    tri = DiagramAut((0, 3, 2, 4, 1))
    wpart, dpart = weyl_membership(d4, tri.lattice(d4))
    assert wpart.is_identity()
    assert dpart.perm == tri.perm


def test_membership_rejects_non_permutation(a2):
    with pytest.raises(InvalidInput):
        weyl_membership(a2, WeylElement([(1, 1), (0, 1)]))


OMEGA_SIZES = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5,
    "B2": 2, "B3": 2, "C2": 2, "C3": 2, "C4": 2,
    "D4": 4, "D5": 4,
    "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1,
}


@pytest.mark.parametrize("name,size", sorted(OMEGA_SIZES.items()))
def test_omega_size_is_number_of_mark_one_nodes(name, size):
    rs = build_root_system(name)
    oms = omega_group(rs)
    assert len(oms) == size
    mark_one = [n for n in rs.affine_nodes if rs.marks[n] == 1]
    assert sorted(om.aut(0) for om in oms) == mark_one


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2"])
def test_omega_cross_checked_against_full_weyl_enumeration(name):
    rs = build_root_system(name)
    affine_set = {rs.node_root(i) for i in rs.affine_nodes}
    brute = [u for u in enumerate_weyl(rs) if {u(v) for v in affine_set} == affine_set]
    assert len(brute) == len(omega_group(rs))
    lattice_maps = {om.weyl for om in omega_group(rs)}
    assert set(brute) == lattice_maps


@pytest.mark.parametrize("name", ["A2", "A3", "C3", "D4", "G2"])
def test_omega_abelian_and_normal(name):
    rs = build_root_system(name)
    oms = omega_group(rs)
    perms = {om.aut.perm for om in oms}
    for a in oms:
        for b in oms:
            assert a.aut.compose(b.aut).perm == b.aut.compose(a.aut).perm
    for t in enumerate_affine_automorphisms(rs):
        for om in oms:
            assert t.compose(om.aut).compose(t.inverse()).perm in perms


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C3", "D4", "G2", "F4", "E6"])
def test_random_weyl_base_roundtrip(name):
    """Transport of a randomly twisted base lands exactly on Delta."""
    rs = build_root_system(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(100):
        w = WeylElement.identity(rs.rank)
        for _ in range(rng.randrange(0, 12)):
            w = simple_reflection(rs, rng.randrange(rs.rank)) * w
        base = [w(v) for v in rs.simple_roots]
        t = find_base_transport(rs, base, rs.simple_roots)
        assert {t(v) for v in base} == set(rs.simple_roots)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_descent_recovers_every_weyl_element(name):
    """Base transport and the Weyl/diagram factorization against the
    enumerated group: each element of W, and each twist by a diagram
    automorphism, is recovered exactly."""
    rs = build_root_system(name)
    delta = rs.simple_roots
    auts = enumerate_delta_automorphisms(rs)
    for w in enumerate_weyl(rs):
        assert find_base_transport(rs, [w(a) for a in delta], delta) == w.inverse()
        assert weyl_part_if_member(rs, w) == w
        for d in auts:
            assert weyl_membership(rs, w * d.lattice(rs)) == (w, d)


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_membership_diagram_part_iff_in_weyl(name):
    """Exhaustive rank <= 2 check: residual is trivial exactly on W."""
    rs = build_root_system(name)
    weyl = set(enumerate_weyl(rs))
    for w in weyl:
        for aut in enumerate_affine_automorphisms(rs):
            if not aut.fixes_node_zero():
                continue
            cand = w * aut.lattice(rs)
            wpart, dpart = weyl_membership(rs, cand)
            assert (cand in weyl) == dpart.is_identity()


def test_torus_action_identity(a1):
    s = TorusElement([Fraction(1, 3)])
    assert torus_action(WeylElement.identity(1), s) == s


def test_torus_action_a1_reflection_fixes_half(a1):
    s = TorusElement([Fraction(1, 2)])
    s1 = WeylElement([(-1,)])
    assert torus_action(s1, s) == s


def test_torus_action_a2_rotation(a2):
    om = omega_sending_zero_to(a2, 1)
    s = TorusElement([Fraction(1, 3), Fraction(0)])
    moved = torus_action(om.weyl, s)
    assert moved.torsion == (Fraction(2, 3), Fraction(1, 3))


def test_torus_action_with_free_parts(a2):
    s = TorusElement([Fraction(0), Fraction(0)], [(Fraction(1),), (Fraction(2),)])
    om = omega_sending_zero_to(a2, 1)
    moved = torus_action(om.weyl, s)
    back = torus_action(om.weyl.inverse(), moved)
    assert back == s
    assert not moved.is_finite_order()


def test_omega_by_node_is_bijection(d4):
    table = omega_by_node(d4)
    assert sorted(table) == [n for n in d4.affine_nodes if d4.marks[n] == 1]


# -- integer fast paths against their Fraction oracles -------------------------


def fraction_inverse(images):
    """Reference inverse: Gauss-Jordan over Q on the image rows."""
    n = len(images)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(n)]
           for i, row in enumerate(images)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise InvalidInput("lattice map is singular")
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    rows = [row[n:] for row in aug]
    if any(x.denominator != 1 for row in rows for x in row):
        raise InvalidInput("lattice map is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in rows)


def fraction_positive_system(roots, base):
    """Reference positivity test: one solve over Q per root."""
    pos = set()
    try:
        for r in roots:
            c = fraction_solve(list(base), r)
            if c is None:
                return None
            if all(x >= 0 for x in c):
                pos.add(r)
            elif not all(x <= 0 for x in c):
                return None
    except ValueError:
        return None
    return frozenset(pos)


def inverse_outcome(fn, images):
    try:
        return fn(images)
    except InvalidInput as exc:
        return str(exc)


WORD_TYPES = ["A1", "A2", "B2", "C2", "A3", "B3", "C3", "G2", "D4", "E8"]


@st.composite
def weyl_words(draw):
    rs = build_root_system(draw(st.sampled_from(WORD_TYPES)))
    longest = 4 if rs.rank == 8 else 12
    word = draw(st.lists(st.integers(0, rs.rank - 1), max_size=longest))
    w = WeylElement.identity(rs.rank)
    gens = simple_reflections(rs)
    for j in word:
        w = gens[j] * w
    return rs, WeylElement(w.images)  # a fresh element, no cached inverse


@settings(max_examples=80, deadline=None)
@given(weyl_words())
def test_inverse_of_weyl_words_matches_fraction_oracle(rs_w):
    rs, w = rs_w
    inv = w.inverse()
    assert inv.images == fraction_inverse(w.images)
    assert (w * inv).is_identity() and inv.inverse() is w


@st.composite
def unimodular_maps(draw):
    """Products of elementary integer row operations: unimodular, mostly not in W."""
    n = draw(st.integers(1, 5))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            f = draw(st.integers(-3, 3))
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
        elif op == "swap":
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return tuple(tuple(row) for row in m)


@settings(max_examples=100, deadline=None)
@given(unimodular_maps())
def test_inverse_of_unimodular_maps_matches_fraction_oracle(images):
    assert WeylElement(images).inverse().images == fraction_inverse(images)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
))
def test_inverse_of_arbitrary_maps_matches_fraction_oracle(rows):
    """Singular and non-unimodular maps raise the oracle's message; the rest invert."""
    images = tuple(tuple(row) for row in rows)
    got = inverse_outcome(lambda m: WeylElement(m).inverse().images, images)
    assert got == inverse_outcome(fraction_inverse, images)


POSITIVITY_TYPES = ["A2", "B2", "G2", "A3", "B3", "C3", "D4"]


@st.composite
def positivity_cases(draw):
    """A base candidate and a root set: Weyl images of subsets of Delta with
    their subsystem or all roots, or random root lists (dependent sets,
    out-of-span roots, mixed signs)."""
    rs = build_root_system(draw(st.sampled_from(POSITIVITY_TYPES)))
    roots = sorted(rs.all_roots)
    if draw(st.booleans()):
        w = WeylElement.identity(rs.rank)
        for j in draw(st.lists(st.integers(0, rs.rank - 1), max_size=8)):
            w = simple_reflections(rs)[j] * w
        mask = draw(st.lists(st.booleans(), min_size=rs.rank, max_size=rs.rank))
        base = [w(a) for a, keep in zip(rs.simple_roots, mask) if keep]
        sub = [w(r) for r in roots if all(keep or not x for x, keep in zip(r, mask))]
        pool = draw(st.sampled_from([sub, roots])) or roots
    else:
        base = draw(st.lists(st.sampled_from(roots), max_size=rs.rank + 1))
        pool = roots
    if draw(st.booleans()):
        # an empty root set is left out: the oracle calls any base a base of it
        pool = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return rs, pool, base


@settings(max_examples=200, deadline=None)
@given(positivity_cases())
def test_positive_system_matches_per_root_solves(case):
    rs, roots, base = case
    assert positive_system(rs, roots, base) == fraction_positive_system(roots, base)


# -- the alcove normal form of torus elements ------------------------------------


ALCOVE_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"]


@st.composite
def torus_pairs(draw):
    """A system of rank <= 4 and two torus elements with 0-2 free generators:
    a grid torsion point, and a Weyl word applied to it or a second draw."""
    rs = build_root_system(draw(st.sampled_from(ALCOVE_TYPES)))
    n_gens = draw(st.integers(0, 2))
    den = draw(st.integers(1, 12))

    def element():
        torsion = [Fraction(draw(st.integers(0, den - 1)), den) for _ in range(rs.rank)]
        free = [
            tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(n_gens))
            for _ in range(rs.rank)
        ]
        return TorusElement(torsion, free if n_gens else None)

    s1 = element()
    if draw(st.booleans()):
        s2 = s1
        for j in draw(st.lists(st.integers(0, rs.rank - 1), max_size=12)):
            s2 = torus_action(simple_reflections(rs)[j], s2)
    else:
        s2 = element()
    return rs, s1, s2


@settings(max_examples=150, deadline=None)
@given(torus_pairs())
def test_alcove_form_lands_in_the_alcove(case):
    """a = u.s; the free part of a is lex-dominant, and every positive root
    of zero free part takes a value in [0, 1] on the lift of a's torsion."""
    rs, s, _ = case
    a, u = alcove_form(rs, s)
    omega = alcove_omega(rs, a)
    assert torus_action(u, s) == a
    assert omega[0].is_identity()
    for r in rs.positives:
        torsion, free = a.value_at(r)
        assert next((x > 0 for x in free if x), True)
        if not any(free):
            assert 0 <= sum(c * t for c, t in zip(r, a.torsion)) <= 1
    for om in omega:
        assert torus_action(om, a).free == a.free


@settings(max_examples=150, deadline=None)
@given(torus_pairs())
def test_transporters_agree_with_the_bfs_oracle(case):
    """An alcove transporter exists exactly when the orbit walk finds one,
    and every returned one carries s1 to s2."""
    from endatlas.endodata import _transporters, make_datum
    from endatlas.galois import build_galois_model

    rs, s1, s2 = case
    trivial = build_galois_model("trivial", rs)
    got = list(_transporters(make_datum(rs, trivial, s1, {}), make_datum(rs, trivial, s2, {})))
    assert (not got) == (bfs_orbit_search(rs, s1, s2) is None)
    for w in got:
        assert torus_action(w, s1) == s2


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_omega_of_the_whole_diagram_is_omega(ct):
    """For J = Delta the products w0(Delta minus j).w0(Delta) over the mark-1
    nodes j, with the identity, are Omega: ``omega_group``, read off them,
    lists the diagram automorphisms whose lattice maps lie in W, with the
    same maps and in the same order."""
    rs = build_root_system(ct)
    omega = alcove_omega(rs, TorusElement.identity(rs.rank))
    assert omega[0].is_identity()
    assert len(omega) == len(set(omega))
    assert [(om.aut.perm, om.weyl.images) for om in omega_group(rs)] == omega_by_membership(rs)


# -- the descent on rho and the membership test against their root-set oracles ----


def random_word(draw, rs):
    """A Weyl element as a random word in the simple reflections."""
    w = WeylElement.identity(rs.rank)
    for j in draw(st.lists(st.integers(0, rs.rank - 1), max_size=6 if rs.rank > 6 else 12)):
        w = simple_reflections(rs)[j] * w
    return w


CARRIES_TYPES = ["A1", "A2", "A3", "A4", "B3", "C3", "G2", "D4"]


@st.composite
def torus_comparisons(draw):
    """A type, w in W or in W.Aut(Delta), s with 0-2 free generators and
    torsion denominators 1-12, and t of one of three kinds: w.s, w.s with
    one coordinate moved, or w.s with one free generator more or less."""
    rs = build_root_system(draw(st.sampled_from(CARRIES_TYPES)))
    w = random_word(draw, rs)
    if draw(st.booleans()):
        w = w * draw(st.sampled_from(enumerate_delta_automorphisms(rs))).lattice(rs)
    n_gens = draw(st.integers(0, 2))
    torsion = [Fraction(draw(st.integers(0, 11)), draw(st.integers(1, 12))) for _ in range(rs.rank)]
    free = [[Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(n_gens)]
            for _ in range(rs.rank)]
    s = TorusElement(torsion, free)
    image = torus_action(w, s)
    torsion, free = list(image.torsion), [list(f) for f in image.free]
    kind = draw(st.sampled_from(["image", "moved", "other-generators"]))
    i = draw(st.integers(0, rs.rank - 1))
    if kind == "moved" and n_gens and draw(st.booleans()):
        free[i][draw(st.integers(0, n_gens - 1))] += Fraction(1, draw(st.integers(1, 3)))
    elif kind == "moved":
        torsion[i] += Fraction(draw(st.integers(1, 11)), 12)
    elif kind == "other-generators":
        free = [f[:-1] for f in free] if n_gens == 2 else [f + [0] for f in free]
    return rs, w, s, TorusElement(torsion, free)


@settings(max_examples=200, deadline=None)
@given(torus_comparisons())
def test_carries_decides_the_torus_action_equality(case):
    rs, w, s, t = case
    assert carries(w, s, t) == (torus_action(w, s) == t)
    for x in (s, t):
        one = (0, (0,) * x.n_generators)
        assert all(x.trivial_at(r) == (x.value_at(r) == one) for r in rs.all_roots)


@st.composite
def centralizer_descents(draw):
    """A type through rank 8, a grid torsion point s and a Weyl word u, or
    None for the u of the alcove form of s."""
    ct = draw(st.sampled_from(ALL_TYPES_THROUGH_RANK_8))
    den = draw(st.integers(1, 6))
    torsion = tuple(Fraction(draw(st.integers(0, den - 1)), den) for _ in range(ct.rank))
    u = random_word(draw, build_root_system(ct)) if draw(st.booleans()) else None
    return str(ct), torsion, u


@settings(max_examples=60, deadline=None)
@given(centralizer_descents())
@example(("E6", tuple(Fraction(x, 2) for x in (1, 1, 1, 0, 1, 0)), None))
# a long and a short root in the centralizer base, so rho must be paired in the form
@example(("C3", tuple(Fraction(x, 2) for x in (1, 0, 1)),
          WeylElement(((1, 1, 1), (0, -1, -1), (0, 2, 1)))))
def test_descent_on_rho_matches_the_set_descent_on_centralizers(case):
    """u carries the standard positive system of the centralizer roots of s
    to a positive system of those of u.s; the descent back to the standard
    one there is the same Weyl element on rho as on the root sets."""
    from endatlas.endodata import _standard_borel, centralizer_roots

    name, torsion, u = case
    rs = build_root_system(name)
    s = TorusElement(torsion)
    if u is None:
        u = alcove_form(rs, s)[1]
    source = {u(r) for r in centralizer_roots(rs, s) & rs.positives}
    s2 = torus_action(u, s)
    rho, base = _standard_borel(rs, s2)
    want = set_descent(rs, source, base, centralizer_roots(rs, s2) & rs.positives)
    assert _transport_in_subsystem(rs, root_sum(source, rs.rank), base, rho) == want


@st.composite
def free_torus_elements(draw):
    """A type through rank 8 and a torus element with one or two free generators."""
    rs = build_root_system(draw(st.sampled_from(ALL_TYPES_THROUGH_RANK_8)))
    n_gens = draw(st.integers(1, 2))
    torsion = [Fraction(draw(st.integers(0, 3)), 4) for _ in range(rs.rank)]
    free = [tuple(Fraction(draw(st.integers(-2, 2))) for _ in range(n_gens))
            for _ in range(rs.rank)]
    return rs, TorusElement(torsion, free)


@settings(max_examples=60, deadline=None)
@given(free_torus_elements())
def test_free_dominance_matches_the_set_descent_on_lex_systems(case):
    rs, s = case
    lex = {
        r for r in rs.all_roots
        if next((x > 0 for x in s.value_at(r)[1] if x), r in rs.positives)
    }
    assert free_dominance(rs, s) == set_descent(rs, lex, rs.simple_roots, rs.positives)


@st.composite
def twisted_weyl_elements(draw):
    """w.d for a Weyl word w and a diagram automorphism d of a simple type
    through rank 8, at times with two image rows added: mostly off the roots."""
    rs = build_root_system(draw(st.sampled_from(ALL_TYPES_THROUGH_RANK_8)))
    d = draw(st.sampled_from(enumerate_delta_automorphisms(rs)))
    rows = [list(row) for row in (random_word(draw, rs) * d.lattice(rs)).images]
    if rs.rank > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(rs.rank)))[:2]
        rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    return rs, WeylElement(rows)


@settings(max_examples=80, deadline=None)
@given(twisted_weyl_elements())
def test_membership_matches_the_root_sweep(case):
    rs, f = case
    assert _descent_of(rs, f) == root_sweep_descent(rs, f)


MINUS_ONE_TYPES = ["A1", "A2", "B3", "D4", "D5", "E6", "E7", "E8", "G2"]


@pytest.mark.parametrize(
    "types,images,permutes",
    [((ct,), None, True) for ct in MINUS_ONE_TYPES]
    + [
        # sends Delta into Phi but breaks the Cartan integers
        (("A2",), [(1, 0), (1, 1)], False),
        # swaps the factors, which _root_lengths scales differently
        (("B2", "C2"), [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)], True),
    ],
    ids=[f"minus-one-{ct}" for ct in MINUS_ONE_TYPES] + ["a2-off-the-cartan-integers", "b2xc2-swap"],
)
def test_membership_edge_cases_match_the_root_sweep(types, images, permutes):
    rs = product_root_system(types)
    f = WeylElement(images or [tuple(-x for x in a) for a in rs.simple_roots])
    got = _descent_of(rs, f)
    assert got == root_sweep_descent(rs, f)
    assert (got is not None) == permutes


def test_descent_refuses_a_set_that_is_no_positive_system(a2):
    """{alpha_1} sums to a vector that reaches the dominant chamber at
    alpha_1 + alpha_2, not at the sum of the positive roots."""
    from endatlas.errors import InternalConsistencyError

    with pytest.raises(InternalConsistencyError, match="non-positive system"):
        _transport_in_subsystem(a2, (1, 0), a2.simple_roots, a2.rho)


def _fresh(types):
    """A root system built afresh, so its memos start empty."""
    if len(types) == 1:
        return RootSystem([(types[0], 0)], _internal=True)
    return product_root_system(types)


# product systems with a diagram automorphism that is no Weyl element
PRODUCT_SWAPS = {
    ("B2", "C2"): DiagramAut((0, 3, 4, 1, 2)),
    ("A1", "A1", "A1"): DiagramAut((0, 2, 3, 1)),
    ("G2", "A2"): DiagramAut((0, 1, 2, 4, 3)),
}


@pytest.mark.parametrize(
    "types", [(ct,) for ct in ALL_TYPES_THROUGH_RANK_8] + list(PRODUCT_SWAPS),
    ids=lambda t: "x".join(map(str, t)),
)
def test_memoized_membership_matches_the_uncached_descent(types):
    """Maps in W, in W.Aut(Delta) and off the roots, each queried twice on a
    fresh root system with a non-member first; every answer is the verdict of
    the descent, and a member answers with the map it was given."""
    rs = _fresh(types)
    rng = random.Random("membership-" + "x".join(map(str, types)))
    if rs.is_simple:
        twists = [d.lattice(rs) for d in enumerate_delta_automorphisms(rs)]
    else:
        twists = [WeylElement.identity(rs.rank), PRODUCT_SWAPS[types].lattice(rs)]

    def word():
        w = WeylElement.identity(rs.rank)
        for _ in range(rng.randrange(12)):
            w = simple_reflections(rs)[rng.randrange(rs.rank)] * w
        return w

    def off_the_roots():
        rows = [list(row) for row in word().images]
        rows[0] = [2 * x for x in rows[0]]
        return WeylElement(rows)

    twisted = [word() * d for d in twists[1:]]
    maps = twisted[:1] + [off_the_roots()] + [word() for _ in range(4)]
    maps += twisted[1:] + [word() * rng.choice(twists) for _ in range(4)] + [off_the_roots()]
    for f in maps + [WeylElement(f.images) for f in maps]:
        w = _descent_of(rs, f)
        member = w is not None and (w * f).is_identity()
        assert weyl_part_if_member(rs, f) is (f if member else None)
    assert len(rs._memos["weyl_members"]) == len({f.images for f in maps})


@pytest.mark.parametrize("name", ["A2", "C2", "D4", "E6"])
def test_node_lattices_are_built_once_and_keep_their_inverse(name):
    rs = _fresh((CartanType.parse(name),))
    for aut in enumerate_affine_automorphisms(rs):
        lat = aut.lattice(rs)
        assert DiagramAut(aut.perm).lattice(rs) is lat
        assert aut.lattice(rs).inverse() is lat.inverse()
        assert lat.inverse() * lat == WeylElement.identity(rs.rank)


def test_a_node_permutation_off_the_marks_fails_on_every_call():
    """C2 has marks (1, 2, 1): swapping nodes 0 and 1 breaks the relation."""
    from endatlas.errors import InternalConsistencyError

    rs = _fresh((CartanType("C", 2),))
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="marks relation"):
            DiagramAut((1, 0, 2)).lattice(rs)
    assert not rs._memos["node_lattices"]


@pytest.mark.parametrize(
    "types, warm", [(("D5",), True), (("D5",), False), (("A1", "A2"), False)],
    ids=["D5-warm", "D5-cold", "A1xA2-cold"],
)
def test_weyl_group_over_the_cap_raises_before_building(monkeypatch, types, warm):
    """|W| is known from the types, so a cap below it raises at once, with
    the group held or not; a cap of |W| answers with the held group."""
    from endatlas import weyl

    rs = _fresh([CartanType.parse(t) for t in types])
    if warm:
        enumerate_weyl(rs)
    order = weyl_group_order(rs)

    def fail(rs):
        raise AssertionError("the Weyl group was built")

    monkeypatch.setattr(weyl, "simple_reflections", fail)
    with pytest.raises(CapExceeded, match=f"Weyl group larger than cap {order - 1}"):
        enumerate_weyl(rs, cap=order - 1)
    monkeypatch.undo()
    group = enumerate_weyl(rs, cap=order)
    assert len(group) == order
    assert enumerate_weyl(rs) is group is rs._memos["weyl"][None]


@pytest.mark.parametrize("name", ["A2", "D4"])
def test_memoized_groups_are_tuples_shared_by_every_caller(name):
    rs = _fresh((CartanType.parse(name),))
    for fn in (enumerate_weyl, omega_group, enumerate_affine_automorphisms):
        first = fn(rs)
        assert type(first) is tuple and fn(rs) is first
    assert [om.aut.perm for om in omega_group(rs)] == sorted(om.aut.perm for om in omega_group(rs))
    assert list(enumerate_weyl(rs)) == sorted(enumerate_weyl(rs), key=lambda w: w.images)
