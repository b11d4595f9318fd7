"""Galois model presets, places, and cocycle enumeration."""

from itertools import product

import pytest

from endatlas.errors import CapExceeded, InvalidInput
from endatlas.galois import (
    GaloisModel,
    build_galois_model,
    enumerate_cocycles,
    model_from_dict,
    model_to_dict,
    places,
    restrict_model,
)
from endatlas.rootsys import ALL_TYPES_THROUGH_RANK_8, build_root_system, product_root_system
from endatlas.weyl import DiagramAut, omega_group

from conftest import hand_preset_model


def test_trivial_preset(a1):
    m = build_galois_model("trivial", a1)
    assert len(m) == 1 and m.names == ("e",)


def test_cyclic_inner_presets(a1):
    for n in (2, 3, 4, 6):
        m = build_galois_model(f"c{n}:inner", a1)
        assert len(m) == n
        assert all(aut.is_identity() for aut in m.action)


def test_huge_cyclic_preset_raises_before_building(a1, monkeypatch):
    def build(n):
        raise AssertionError("the cyclic table was built")

    monkeypatch.setattr("endatlas.galois._cyclic", build)
    with pytest.raises(CapExceeded):
        build_galois_model("c1000000:inner", a1)


_PRESETS = ("trivial", "s3") + tuple(f"c{n}:{v}" for n in range(1, 13) for v in ("inner", "outer"))


def _outcome(build, name, rs):
    try:
        return build(name, rs).key()
    except (InvalidInput, CapExceeded) as exc:
        return type(exc), str(exc)


def test_presets_are_the_hand_written_models():
    """Every preset closed from its generators has the names, table and
    action of the hand-written group, or its refusal, on every type."""
    for ct in ALL_TYPES_THROUGH_RANK_8:
        rs = build_root_system(ct)
        for name in _PRESETS:
            assert _outcome(build_galois_model, name, rs) == _outcome(hand_preset_model, name, rs), (ct, name)
    a1 = build_root_system("A1")
    for name in ("c0:inner", "c101:inner", "c101:outer"):
        assert _outcome(build_galois_model, name, a1) == _outcome(hand_preset_model, name, a1)


def test_a_product_action_must_preserve_the_diagram():
    rs = product_root_system(["A1", "A2"])
    identity = DiagramAut.identity(rs.rank)
    GaloisModel(["e", "g"], [[0, 1], [1, 0]], [identity, DiagramAut((0, 1, 3, 2))], rs)
    with pytest.raises(InvalidInput, match="automorphisms of the diagram"):
        GaloisModel(["e", "g"], [[0, 1], [1, 0]], [identity, DiagramAut((0, 2, 1, 3))], rs)


@pytest.mark.parametrize(
    "types, perm",
    [
        (types, perm)
        for types in (["A1", "A2"], ["A3"])
        for perm in ((0, 1, 2, 4), (0, 1, 1, 3), (0, 1, 2), (1, 0, 2, 3))
    ]
    + [(["A1"], (1, 0))],
    ids=str,
)
def test_an_action_value_that_permutes_no_diagram_is_an_input_error(types, perm):
    """Off 0..rank, repeated, short, or moving slot 0: on A1 the swap (1, 0)
    preserves the matrix, so only the slot-0 rule refuses it."""
    rs = product_root_system(types)
    action = [DiagramAut.identity(rs.rank), DiagramAut(perm)]
    with pytest.raises(InvalidInput, match="automorphisms of the diagram"):
        GaloisModel(["e", "g"], [[0, 1], [1, 0]], action, rs)


def test_c2_outer_on_a2(a2):
    m = build_galois_model("c2:outer", a2)
    assert m.action[1].perm == (0, 2, 1)
    assert [a for a in range(len(m)) if m.action[a].is_identity()] == [0]


def test_c2_outer_rejected_without_flip():
    c3 = build_root_system("C3")
    with pytest.raises(InvalidInput, match="no diagram automorphism"):
        build_galois_model("c2:outer", c3)
    with pytest.raises(InvalidInput):
        build_galois_model("c2:outer", build_root_system("A1"))


def test_c3_outer_is_d4_triality(d4):
    m = build_galois_model("c3:outer", d4)
    assert m.action[1].perm == (0, 3, 2, 4, 1)
    with pytest.raises(InvalidInput):
        build_galois_model("c3:outer", build_root_system("A3"))


def test_s3_preset_matches_the_triality_description(d4):
    """The order-3 element fixes a2 and a0 and cycles a1, a3, a4."""
    m = build_galois_model("s3", d4)
    r = m.names.index("r")
    aut = m.action[r]
    assert aut(0) == 0 and aut(2) == 2
    assert (aut(1), aut(3), aut(4)) == (3, 4, 1)
    # phi is an isomorphism onto Aut(D) = S3
    assert len({a.perm for a in m.action}) == 6


def test_s3_preset_needs_d4(a2):
    with pytest.raises(InvalidInput, match="D4"):
        build_galois_model("s3", a2)


def test_unknown_preset_rejected(a1):
    with pytest.raises(InvalidInput, match="unknown"):
        build_galois_model("q8", a1)


def test_model_dict_roundtrip(a2):
    m = build_galois_model("c2:outer", a2)
    again = model_from_dict(model_to_dict(m), a2)
    assert again.same_model(m)


def test_model_dict_validation(a1):
    with pytest.raises(InvalidInput):
        model_from_dict({"elements": ["e", "g"], "table": [[0, 1], [1, 1]]}, a1)
    with pytest.raises(InvalidInput):
        model_from_dict({"elements": ["e"], "table": [[0]], "action": {"e": [2]}}, a1)
    with pytest.raises(InvalidInput, match="unknown elements"):
        model_from_dict(
            {"elements": ["e", "g"], "table": [[0, 1], [1, 0]], "action": {"h": [1]}}, a1
        )


def test_places_trivial_and_z2(a1):
    m1 = build_galois_model("trivial", a1)
    assert len(places(m1)) == 1
    m2 = build_galois_model("c2:inner", a1)
    ps = places(m2)
    assert [len(p.subgroup) for p in ps] == [1, 2]


def test_places_z4_identifies_generators(a1):
    m = build_galois_model("c4:inner", a1)
    ps = places(m)
    # <g1> and <g3> generate the same subgroup: three classes, not four
    assert [len(p.subgroup) for p in ps] == [1, 2, 4]


def test_places_s3(d4):
    m = build_galois_model("s3", d4)
    assert sorted(len(p.subgroup) for p in places(m)) == [1, 2, 3]


def test_restrict_model(d4):
    m = build_galois_model("s3", d4)
    p3 = next(p for p in places(m) if len(p.subgroup) == 3)
    sub, elems = restrict_model(m, p3.subgroup)
    assert len(sub) == 3 and elems == [0, 1, 2]
    with pytest.raises(InvalidInput):
        restrict_model(m, [0, m.names.index("r")])  # not closed


def test_cocycle_counts(a1, a2):
    m = build_galois_model("c2:inner", a1)
    assert len(enumerate_cocycles(m, omega_group(a1))) == 2
    m = build_galois_model("c3:inner", a2)
    assert len(enumerate_cocycles(m, omega_group(a2))) == 3
    m = build_galois_model("trivial", a2)
    assert len(enumerate_cocycles(m, omega_group(a2))) == 1


def _brute_cocycles(model, omega_elements):
    """Oracle: filter all |Omega|^|Gamma| maps by the homomorphism condition."""
    auts = [om.aut for om in omega_elements]
    n = len(model)
    out = set()
    for vals in product(auts, repeat=n):
        sp = [vals[e].compose(model.phi(e)) for e in range(n)]
        if all(
            sp[model.table[a][b]].perm == sp[a].compose(sp[b]).perm
            for a in range(n)
            for b in range(n)
        ):
            out.add(tuple(v.perm for v in vals))
    return sorted(out)


@pytest.mark.parametrize(
    "type_name,galois_spec",
    [
        ("A1", "c2:inner"),
        ("A1", "c4:inner"),
        ("A2", "c3:inner"),
        ("A2", "c2:outer"),
        ("A3", "c2:inner"),
        ("C3", "c2:inner"),
        ("D4", "s3"),
        ("D4", "c3:outer"),
    ],
)
def test_cocycles_match_brute_force(type_name, galois_spec):
    rs = build_root_system(type_name)
    m = build_galois_model(galois_spec, rs)
    oms = omega_group(rs)
    got = sorted(c.key() for c in enumerate_cocycles(m, oms))
    assert got == _brute_cocycles(m, oms)


def test_cocycle_restriction_to_trivial_subgroup_is_trivial(a2):
    m = build_galois_model("c3:inner", a2)
    for c in enumerate_cocycles(m, omega_group(a2)):
        assert c.value(0).is_identity()
