"""Base transport, the Weyl/diagram factorization, Omega, and the torus action."""

import random
from fractions import Fraction

import pytest

from endatlas.errors import InvalidInput
from endatlas.rootsys import build_root_system
from endatlas.torus import TorusElement
from endatlas.weyl import (
    DiagramAut,
    WeylElement,
    enumerate_affine_automorphisms,
    enumerate_delta_automorphisms,
    enumerate_weyl,
    find_base_transport,
    is_base,
    omega_by_node,
    omega_group,
    torus_action,
    weyl_membership,
    weyl_part_if_member,
)

from conftest import omega_sending_zero_to


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
