"""The three finite searches against brute-force oracles: diagram
isomorphisms, orbits of a permutation group, and generators with words."""

from itertools import combinations, permutations

import pytest

from endatlas._linalg import rank as q_rank
from endatlas.elliptic import EllipticPair, pair_to_datum
from endatlas.endodata import _orbits
from endatlas.errors import InvalidInput
from endatlas.galois import build_galois_model, enumerate_cocycles
from endatlas.reduction import make_induced_model
from endatlas.rootsys import (
    ALL_TYPES_THROUGH_RANK_8,
    _candidate_types,
    build_root_system,
    cartan_matrix,
    diagram_isomorphisms,
    subdiagram_components,
)
from endatlas.suites import shapiro_configurations
from endatlas.weyl import omega_group

from conftest import generating_set, unfiltered_diagram_isomorphisms

_PRESETS = ("trivial", "c2:inner", "c3:inner", "c2:outer", "c3:outer", "s3")


def _models(rs, specs=_PRESETS):
    """The listed presets that the type admits."""
    models = []
    for spec in specs:
        try:
            models.append(build_galois_model(spec, rs))
        except InvalidInput:
            pass
    return models


def _matches(pattern, pair, seq):
    return all(
        pair[a][b] == pattern[p][q] for p, a in enumerate(seq) for q, b in enumerate(seq)
    )


@pytest.mark.parametrize(
    "ct", [ct for ct in ALL_TYPES_THROUGH_RANK_8 if ct.rank <= 6], ids=str
)
def test_diagram_automorphisms_are_the_pairing_preserving_permutations(ct):
    rs = build_root_system(ct)
    pair = rs.affine_pairing
    expected = [p for p in permutations(rs.affine_nodes) if _matches(pair, pair, p)]
    assert list(diagram_isomorphisms(pair, pair, rs.affine_nodes)) == expected


@pytest.mark.parametrize(
    "ct", [ct for ct in ALL_TYPES_THROUGH_RANK_8 if ct.rank <= 4], ids=str
)
def test_subdiagram_components_take_the_least_bijection_per_candidate_type(ct):
    """Every independent proper node subset: the components by flood fill,
    each with the first candidate type that some bijection matches and the
    least such bijection."""
    rs = build_root_system(ct)
    pair = rs.affine_pairing
    checked = 0
    for size in range(1, len(rs.affine_nodes)):
        for subset in combinations(rs.affine_nodes, size):
            if q_rank([rs.node_root(n) for n in subset]) != size:
                continue
            comps, left = [], set(subset)
            while left:
                comp, stack = set(), [min(left)]
                while stack:
                    x = stack.pop()
                    if x not in comp:
                        comp.add(x)
                        stack.extend(y for y in left if pair[x][y])
                left -= comp
                for cand in _candidate_types(len(comp)):
                    target = cartan_matrix(cand)
                    found = [p for p in permutations(sorted(comp)) if _matches(target, pair, p)]
                    if found:
                        comps.append((cand, list(min(found))))
                        break
            comps.sort(key=lambda c: c[1])
            assert subdiagram_components(rs, subset) == comps, subset
            checked += 1
    assert checked == 2 ** len(rs.affine_nodes) - 2


def _connected_subsets(pair, nodes):
    """Every nonempty node subset connected in the diagram of ``pair``."""
    found, frontier = set(), {frozenset([n]) for n in nodes}
    while frontier:
        found |= frontier
        frontier = {
            sub | {y} for sub in frontier for x in sub for y in nodes
            if y not in sub and pair[x][y]
        } - found
    return sorted(found, key=sorted)


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_row_multiset_prefilter_lists_what_backtracking_lists(ct):
    """On every connected affine-node subset, each candidate Cartan matrix of
    its size, and the affine pairing on the whole node set, give the same
    matches with the prefilter as without it."""
    rs = build_root_system(ct)
    pair = rs.affine_pairing
    checked = 0
    for subset in _connected_subsets(pair, rs.affine_nodes):
        patterns = [cartan_matrix(cand) for cand in _candidate_types(len(subset))]
        if len(subset) == len(rs.affine_nodes):
            patterns.append(pair)
        for pattern in patterns:
            got = list(diagram_isomorphisms(pattern, pair, subset))
            assert got == unfiltered_diagram_isomorphisms(pattern, pair, subset), (subset, pattern)
            checked += bool(got)
    assert checked


@pytest.mark.parametrize("type_name", ["A1", "A2", "A3", "A4", "C2", "C3", "G2", "D4"])
def test_orbits_are_the_images_under_the_cocycle(type_name):
    """The permutations are a homomorphic image of Gamma, so the orbit of x is
    {sp[a](x) : a in Gamma}; the orbits come in the order of their least node."""
    rs = build_root_system(type_name)
    for galois in _models(rs):
        for c in enumerate_cocycles(galois, omega_group(rs)):
            sp = [c.sigma_prime(galois, a) for a in range(len(galois))]
            got = _orbits(sp, rs.affine_nodes)
            expected = {frozenset(p(x) for p in sp) for x in rs.affine_nodes}
            assert len(got) == len(expected) and set(got) == expected
            firsts = [min(o) for o in got]
            assert firsts == sorted(firsts)


def test_a_pair_whose_orbit_mixes_types_is_an_input_error():
    rs = build_root_system("A1")
    galois = build_galois_model("c2:inner", rs)
    cocycle = next(iter(enumerate_cocycles(galois, omega_group(rs))))
    for orbit in (frozenset({0, "a"}), frozenset(), frozenset({0, 5})):
        with pytest.raises(InvalidInput):
            pair_to_datum(rs, galois, EllipticPair(cocycle=cocycle, orbit=orbit))


def _word_models():
    models = []
    for type_name in ("A1", "A2", "A3", "D4", "E6"):
        rs = build_root_system(type_name)
        models += _models(rs, _PRESETS + tuple(f"c{n}:inner" for n in range(4, 9)))
    for t, base_spec, names, table, emb in shapiro_configurations(("A1", "A2")):
        base = build_galois_model(base_spec, build_root_system(t))
        models.append(make_induced_model(base, names, table, emb).galois)
    return models


def test_words_choose_the_oracle_generators_and_multiply_out():
    """Every preset and every Shapiro ambient model (Z/2, Z/4 and S3)."""
    sizes = set()
    for model in _word_models():
        gens, word = model.words()
        assert gens == generating_set(model), model
        assert sorted(word) == list(range(len(model))) and word[0] == ()
        for e, w in word.items():
            cur = 0
            for g in w:
                assert g in gens
                cur = model.table[cur][g]
            assert cur == e
        sizes.add((len(model), len(gens)))
    assert {(4, 1), (6, 2), (8, 1)} <= sizes
