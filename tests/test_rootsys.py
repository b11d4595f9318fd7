"""Root system construction, marks, and subdiagram recognition."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endatlas._linalg import rank as q_rank
from endatlas.errors import CapExceeded, InvalidInput
from endatlas.rootsys import (
    ALL_TYPES_THROUGH_RANK_8,
    CartanType,
    RootSystem,
    _positive_root_count,
    affine_diagram,
    build_root_system,
    product_root_system,
    subdiagram_components,
)

from conftest import fraction_pairing

# the classical root counts are the independent oracle for the closure generation
CLASSICAL_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_root_counts_match_classical(ct):
    rs = build_root_system(ct)
    assert len(rs.all_roots) == CLASSICAL_COUNT[ct.family](ct.rank)
    assert len(rs.positives) * 2 == len(rs.all_roots)
    assert len(rs.positives) == _positive_root_count(ct)


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_marks_relation_holds_exactly(ct):
    rs = build_root_system(ct)
    total = [0] * rs.rank
    for node in rs.affine_nodes:
        vec = rs.node_root(node)
        for i, x in enumerate(vec):
            total[i] += rs.marks[node] * x
    assert not any(total)
    assert rs.marks[0] == 1


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_positive_coefficients_bounded_by_marks(ct):
    rs = build_root_system(ct)
    for r in rs.positives:
        assert all(0 <= r[i] <= rs.marks[i + 1] for i in range(rs.rank))


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_negation_is_fixed_point_free_involution(ct):
    rs = build_root_system(ct)
    for r in rs.all_roots:
        neg = tuple(-x for x in r)
        assert neg in rs.all_roots
        assert neg != r


def test_a1_explicit(a1):
    assert a1.all_roots == {(1,), (-1,)}
    assert a1.lowest_root == (-1,)
    assert a1.marks == {0: 1, 1: 1}


def test_g2_marks_and_count():
    rs = build_root_system("G2")
    assert len(rs.all_roots) == 12
    assert sorted(rs.marks.values()) == [1, 2, 3]


def test_e8_marks():
    rs = build_root_system("E8")
    assert len(rs.all_roots) == 240
    assert [n for n, m in rs.marks.items() if m == 1] == [0]


@pytest.mark.parametrize(
    "bad", ["Z9", "A0", "D3", "E5", "E9", "F5", "G3", "B1", "C1"]
)
def test_inadmissible_types_rejected(bad):
    with pytest.raises(InvalidInput, match="admissible"):
        build_root_system(bad)


def test_type_parse_rejects_garbage():
    with pytest.raises(InvalidInput):
        CartanType.parse("42")
    with pytest.raises(InvalidInput):
        CartanType.parse("Ax")


def test_subdiagram_a1_singleton(a1):
    comps = subdiagram_components(a1, [1])
    assert comps == [(CartanType("A", 1), [1])]


def test_subdiagram_affine_c2_end_nodes(c2):
    # a0 and a2 are the two end nodes of the affine chain, non-adjacent
    comps = subdiagram_components(c2, [0, 2])
    assert comps == [(CartanType("A", 1), [0]), (CartanType("A", 1), [2])]


def test_subdiagram_affine_g2():
    # in the Bourbaki numbering the lowest root attaches to the long root a2,
    # so {a0, a1} splits while {a0, a2} is connected of type A2
    rs = build_root_system("G2")
    assert subdiagram_components(rs, [0, 1]) == [
        (CartanType("A", 1), [0]),
        (CartanType("A", 1), [1]),
    ]
    assert subdiagram_components(rs, [0, 2]) == [(CartanType("A", 2), [0, 2])]


def test_subdiagram_recognizes_mixed_types():
    c3 = build_root_system("C3")
    assert subdiagram_components(c3, [0, 2, 3]) == [
        (CartanType("A", 1), [0]),
        (CartanType("B", 2), [3, 2]),
    ]
    b3 = build_root_system("B3")
    assert subdiagram_components(b3, [0, 1, 2]) == [(CartanType("A", 3), [0, 2, 1])]
    d4 = build_root_system("D4")
    assert subdiagram_components(d4, [0, 1, 3, 4]) == [
        (CartanType("A", 1), [0]),
        (CartanType("A", 1), [1]),
        (CartanType("A", 1), [3]),
        (CartanType("A", 1), [4]),
    ]


def test_subdiagram_rejects_dependent_sets(a2):
    with pytest.raises(InvalidInput, match="dependent"):
        subdiagram_components(a2, [0, 1, 2])


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_node_sets_are_dependent_exactly_when_they_are_all_nodes(ct):
    """The exact rule of ``subdiagram_components`` against Gaussian
    elimination: every subset of the affine nodes is independent unless it
    is the whole set, which is refused."""
    rs = build_root_system(ct)
    nodes = rs.affine_nodes
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            dependent = q_rank([rs.node_root(n) for n in subset]) < size
            assert dependent == (size == len(nodes)), subset
    with pytest.raises(InvalidInput, match="dependent"):
        subdiagram_components(rs, nodes)
    for left_out in nodes:
        subdiagram_components(rs, [n for n in nodes if n != left_out])


def test_subdiagram_memo_returns_fresh_lists():
    """A second call on a fresh root system answers from the memo with an
    equal result that the first caller's edits do not reach."""
    rs = RootSystem([(CartanType("E", 7), 0)], _internal=True)
    nodes = [0, 1, 2, 3, 5, 6, 7]
    first = subdiagram_components(rs, nodes)
    assert rs._memos["components"]
    second = subdiagram_components(rs, nodes)
    assert first == second
    want = [(ct, list(order)) for ct, order in second]
    first[0][1].reverse()
    first.append(None)
    assert subdiagram_components(rs, nodes) == second == want


def test_memo_builds_once_and_stores_nothing_when_the_build_raises():
    rs = RootSystem([(CartanType("A", 2), 0)], _internal=True)
    calls = []

    def build():
        calls.append(1)
        if len(calls) == 1:
            raise InvalidInput("first build fails")
        return (len(calls),)

    with pytest.raises(InvalidInput):
        rs.memo("components", "k", build)
    assert "k" not in rs._memos["components"]
    value = rs.memo("components", "k", build)
    assert value == (2,) and rs.memo("components", "k", build) is value and len(calls) == 2
    with pytest.raises(KeyError):
        rs.memo("no such memo", "k", build)


def _mutable_inside(value):
    if isinstance(value, (list, dict, set, bytearray)):
        return True
    return isinstance(value, tuple) and any(map(_mutable_inside, value))


def test_every_memo_holds_immutable_values():
    """After a classification and an inventory on a fresh root system, no
    stored value is or holds (through tuples) a list, dict or set."""
    from endatlas.elliptic import brute_force_inventory, classify_elliptic
    from endatlas.galois import build_galois_model

    rs = RootSystem([(CartanType("A", 2), 0)], _internal=True)
    g = build_galois_model("c3:inner", rs)
    classify_elliptic(rs, g)
    brute_force_inventory(rs, g, 6)
    assert all(rs._memos.values())
    for name, table in rs._memos.items():
        assert not any(map(_mutable_inside, table.values())), name


def test_affine_diagram_bonds(c2):
    diag = affine_diagram(c2)
    bonds = {frozenset(e): (m, a) for e, m, a in diag.bonds}
    # both bonds are double, pointing at the short middle node a1
    assert bonds == {
        frozenset({0, 1}): (2, 1),
        frozenset({1, 2}): (2, 1),
    }
    assert diag.marks == (1, 2, 1)


def test_affine_a1_quadruple_bond(a1):
    diag = affine_diagram(a1)
    assert diag.bonds == (((0, 1), 4, None),)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_affine_restriction_is_the_finite_diagram(name):
    """Dropping node 0 from the completed diagram leaves the type's own diagram."""
    rs = build_root_system(name)
    diag = affine_diagram(rs)
    finite_bonds = {
        (e, m, a) for e, m, a in diag.bonds if 0 not in e
    }
    from endatlas.rootsys import cartan_matrix

    M = cartan_matrix(rs.type)
    expected = set()
    for i in range(rs.rank):
        for j in range(i + 1, rs.rank):
            mult = M[i][j] * M[j][i]
            if mult == 0:
                continue
            arrow = None
            if mult > 1:
                arrow = (j if abs(M[i][j]) > 1 else i) + 1
            expected.add(((i + 1, j + 1), mult, arrow))
    assert finite_bonds == expected


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([str(ct) for ct in ALL_TYPES_THROUGH_RANK_8 if ct.rank <= 5]),
    st.data(),
)
def test_reflection_closure_and_pairing(name, data):
    """Reflections in arbitrary roots permute the root set, with integer pairings."""
    rs = build_root_system(name)
    roots = sorted(rs.all_roots)
    r = data.draw(st.sampled_from(roots))
    q = data.draw(st.sampled_from(roots))
    assert isinstance(rs.pairing(r, q), int)
    assert rs.reflect(q, r) in rs.all_roots


PAIRING_TYPES = [str(ct) for ct in ALL_TYPES_THROUGH_RANK_8 if ct.rank <= 4] + ["E6", "B2xC2"]


@pytest.mark.parametrize("name", PAIRING_TYPES)
def test_pairing_on_the_integer_form_matches_the_fraction_formula(name):
    """Every root pair, including the differently scaled factors of B2 x C2."""
    rs = product_root_system(name.split("x"))
    for beta in rs.all_roots:
        for gamma in rs.all_roots:
            assert rs.pairing(beta, gamma) == fraction_pairing(rs, beta, gamma)


def test_pairing_refuses_a_non_integer_quotient(a2):
    beta, gamma = (0, 1), (2, 0)
    with pytest.raises(ValueError):
        fraction_pairing(a2, beta, gamma)
    with pytest.raises(InvalidInput, match="pairing of non-roots"):
        a2.pairing(beta, gamma)


@pytest.mark.parametrize("name", ["A21", "A40", "B16", "D17"])
def test_rank_beyond_the_work_cap_is_refused_before_building(name, monkeypatch):
    def generate(self):
        raise AssertionError("the roots were generated")

    monkeypatch.setattr("endatlas.rootsys.RootSystem._generate_roots", generate)
    with pytest.raises(CapExceeded, match="work cap"):
        build_root_system(name)
