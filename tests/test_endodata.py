"""Layer normalization, equivalence with its brute-force oracle, Out, and
ellipticity of endoscopic data."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endatlas.errors import InvalidInput
from endatlas.galois import build_galois_model, places
from endatlas.rootsys import ALL_TYPES_THROUGH_RANK_8, build_root_system, product_root_system
from endatlas.torus import TorusElement
from endatlas.weyl import WeylElement, enumerate_weyl, simple_reflections, torus_action
from endatlas.elliptic import _canonical_s_reps, _families_fixing, classify_elliptic
from endatlas.suites import _random_torus
from endatlas.endodata import (
    EndoscopicDatum,
    _standard_borel,
    equivalent,
    equivalent_bruteforce,
    is_elliptic,
    langlands_normalize,
    localize,
    make_datum,
    make_datum_from_family,
    principal_datum,
    raw_form,
    standard_bprime_base,
    transport_datum,
    witness_transports,
)

from conftest import (
    a1_swap_datum,
    a2_rotation_data,
    difference_search_borel,
    kernel_tower_ok,
    layer_criterion_elliptic,
    layered_construction,
    omega_sending_zero_to,
    out_group,
)

F = Fraction


def test_principal_datum_normalizes_to_delta(a1):
    g = build_galois_model("trivial", a1)
    p = principal_datum(a1, g)
    nd, ld = langlands_normalize(p)
    assert ld.shape == "Delta" and ld.d == 1
    assert ld.layers == ((0, frozenset({(1,)})),)


def test_a1_swap_datum_layers(a1):
    d, _ = a1_swap_datum(a1)
    nd, ld = langlands_normalize(d)
    assert ld.shape == "DeltaA" and ld.d == 2
    assert ld.layer(0) == frozenset()
    assert ld.layer(1) == {(1,), (-1,)}
    assert ld.u.is_identity()


def test_c2_half_zero_layers(c2):
    g = build_galois_model("trivial", c2)
    d = make_datum(c2, g, TorusElement([F(1, 2), F(0)]), {})
    nd, ld = langlands_normalize(d)
    assert ld.shape == "DeltaA"
    assert {c2.node_of_root(r) for r in ld.layer(0)} == {0, 2}
    assert {c2.node_of_root(r) for r in ld.layer(1)} == {1}


def test_normalize_rejects_infinite_order(a1):
    g = build_galois_model("trivial", a1)
    d = make_datum(a1, g, TorusElement([F(0)], [(F(1),)]), {})
    with pytest.raises(InvalidInput, match="reduction"):
        langlands_normalize(d)


def test_normalization_idempotent(a1):
    d, _ = a1_swap_datum(a1)
    nd, _ = langlands_normalize(d)
    nd2, ld2 = langlands_normalize(nd)
    assert nd2 is nd
    assert ld2.u.is_identity()


def test_shape_delta_forces_trivial_cocycle(a2):
    """Any datum normalizing to shape Delta stores the plain diagram action."""
    g = build_galois_model("c2:outer", a2)
    rot = omega_sending_zero_to(a2, 1)
    # cocycle g -> rotation: sigma'(g) fixes node 2, a weight-one singleton
    d = make_datum(a2, g, TorusElement([F(0), F(0)]), {"g": rot.aut})
    nd, ld = langlands_normalize(d)
    assert ld.shape == "Delta"
    for a in range(2):
        assert nd.w_value(a).is_identity()


def test_equivalent_reflexive_with_identity_witness(a2):
    d1, _, _ = a2_rotation_data(a2)
    w = equivalent(d1, d1)
    assert w is not None and witness_transports(d1, d1, w)


def test_a1_mark_one_pairs_equivalent(a1):
    """Data built from the two singleton orbits coincide after normalization."""
    g = build_galois_model("c2:inner", a1)
    p = principal_datum(a1, g)
    w = equivalent(p, p)
    assert w is not None


def test_a2_rotation_data_inequivalent(a2):
    d1, d2, _ = a2_rotation_data(a2)
    assert equivalent(d1, d2) is None
    assert equivalent_bruteforce(d1, d2) is None


def test_witness_soundness_on_transported_datum(c2):
    g = build_galois_model("trivial", c2)
    d = make_datum(c2, g, TorusElement([F(1, 2), F(0)]), {})
    w0 = WeylElement(tuple(c2.reflect_simple(0, c2.simple_roots[i]) for i in range(2)))
    moved = transport_datum(d, w0)
    w = equivalent(moved, d)
    assert w is not None
    assert witness_transports(moved, d, w)


@pytest.mark.parametrize(
    "type_name,galois_spec,bound",
    [("A1", "trivial", 4), ("A1", "c2:inner", 4), ("A2", "c3:inner", 3), ("B2", "c2:inner", 3)],
)
def test_equivalent_agrees_with_brute_force(type_name, galois_spec, bound):
    """Layer criterion vs exhaustive Weyl search on every bounded pair."""
    rs = build_root_system(type_name)
    g = build_galois_model(galois_spec, rs)
    from endatlas.elliptic import _canonical_s_reps
    from endatlas.suites import _families_fixing
    from endatlas.weyl import enumerate_weyl

    data = []
    for s in _canonical_s_reps(rs, bound):
        for fam in _families_fixing(rs, g, s, enumerate_weyl(rs)):
            from endatlas.endodata import EndoscopicDatum, standard_bprime_base

            data.append(
                EndoscopicDatum(rs, g, s, fam, standard_bprime_base(rs, s), _validate=False)
            )
    assert data
    for i in range(len(data)):
        for j in range(i, len(data)):
            fast = equivalent(data[i], data[j])
            slow = equivalent_bruteforce(data[i], data[j])
            assert (fast is None) == (slow is None), (i, j)
            if fast is not None:
                assert witness_transports(data[i], data[j], fast)


def test_witness_undoes_the_free_dominance_step(d4):
    """Two equivalent D4/c3:outer data with free parts, the second far from
    lex-dominant: the witness is certified and exhaustive search agrees."""
    g = build_galois_model("c3:outer", d4)
    one, minus = (F(1), F(1)), (F(-1), F(-1))
    zero = (F(0), F(0))
    d1 = make_datum(d4, g, TorusElement([F(1, 2)] * 4, [zero, one, zero, zero]), {})
    s2 = TorusElement([F(1, 2), F(0), F(1, 2), F(1, 2)], [one, minus, one, minus])
    d2 = make_datum(d4, g, s2, {
        "g1": [[0, 0, 0, 1], [0, 1, 0, 0], [-1, -2, -1, -1], [1, 0, 0, 0]],
        "g2": [[-1, -2, -1, -1], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    })
    w = equivalent(d1, d2)
    assert w is not None and witness_transports(d1, d2, w)
    assert equivalent_bruteforce(d1, d2) is not None


# every preset that exists on rank <= 3 (c3:outer and s3 need D4)
DIFFERENTIAL_CONFIGS = [
    ("A1", "trivial"), ("A1", "c2:inner"), ("A1", "c4:inner"),
    ("A2", "c3:inner"), ("A2", "c2:outer"), ("B2", "c2:inner"), ("C2", "c4:inner"),
    ("G2", "c2:inner"), ("A3", "c2:outer"), ("A3", "c3:inner"),
    ("B3", "c2:inner"), ("C3", "trivial"),
]


def test_equivalent_agrees_with_brute_force_on_random_data():
    """equivalent against exhaustive Weyl search on random data, a third of
    them with 1-2 free generators: a datum against another family on the same
    s, against a random W-conjugate of such a datum, or against a datum on
    another s of the same torsion denominator and generator count."""
    from endatlas.elliptic import _families_fixing
    from endatlas.endodata import EndoscopicDatum

    def random_datum(rs, g, n, gens):
        free = [tuple(F(rng.randrange(-1, 2)) for _ in range(gens)) for _ in range(rs.rank)]
        s = TorusElement([F(rng.randrange(n), n) for _ in range(rs.rank)], free if gens else None)
        fams = _families_fixing(rs, g, s, enumerate_weyl(rs))
        if not fams:
            return None
        return EndoscopicDatum(
            rs, g, s, rng.choice(fams), standard_bprime_base(rs, s), _validate=False
        )

    rng = random.Random(20261018)
    verdicts = set()
    for _ in range(150):
        type_name, spec = rng.choice(DIFFERENTIAL_CONFIGS)
        rs = build_root_system(type_name)
        g = build_galois_model(spec, rs)
        n = rng.choice((1, 2, 3, 4, 6))
        gens = rng.choice((0, 0, 0, 0, 1, 2))
        d1 = random_datum(rs, g, n, gens)
        if d1 is None:
            continue
        mode = rng.randrange(3)
        if mode == 2:
            d2 = random_datum(rs, g, n, gens)
            if d2 is None:
                continue
        else:
            fams = _families_fixing(rs, g, d1.s, enumerate_weyl(rs))
            d2 = EndoscopicDatum(
                rs, g, d1.s, rng.choice(fams), d1.bprime_base, _validate=False
            )
            if mode == 1:
                d2 = transport_datum(d2, rng.choice(enumerate_weyl(rs)))
        fast = equivalent(d1, d2)
        slow = equivalent_bruteforce(d1, d2)
        assert (fast is None) == (slow is None), (type_name, spec, d1.s, d1.family, d2.family)
        if fast is not None:
            assert witness_transports(d1, d2, fast)
        verdicts.add(fast is None)
    assert verdicts == {True, False}


def test_a_singular_family_value_is_refused_directly(a2):
    galois = build_galois_model("c2:inner", a2)
    family = [WeylElement.identity(2), WeylElement(((1, 1), (1, 1)))]
    with pytest.raises(InvalidInput):
        EndoscopicDatum(a2, galois, TorusElement.identity(2), family, ())


def test_make_datum_refuses_a_value_off_the_cartan_integers(a2):
    """Invertible and fixing s, but alpha_1 + alpha_2 -> alpha_1 + 2 alpha_2."""
    galois = build_galois_model("c2:inner", a2)
    with pytest.raises(InvalidInput, match="does not permute the roots"):
        make_datum(a2, galois, TorusElement.identity(2), {"g": [[1, 0], [1, 1]]})


def test_out_group_sizes(a1, a2):
    d, _ = a1_swap_datum(a1)
    assert len(out_group(d)) == 2
    d1, _, _ = a2_rotation_data(a2)
    assert len(out_group(d1)) == 3


def test_out_group_rejects_principal_shape(a1):
    g = build_galois_model("trivial", a1)
    with pytest.raises(InvalidInput):
        out_group(principal_datum(a1, g))


def test_is_elliptic_cases(a1):
    g2 = build_galois_model("c2:inner", a1)
    gt = build_galois_model("trivial", a1)
    assert is_elliptic(principal_datum(a1, gt)) is True
    d_noell = make_datum(a1, gt, TorusElement([F(1, 2)]), {})
    assert is_elliptic(d_noell) is False
    d_swap, _ = a1_swap_datum(a1)
    assert is_elliptic(d_swap) is True


def _presets(rs):
    """The presets of the type: the cyclic inner ones of order up to 3, and
    every outer one the diagram allows."""
    models = []
    for spec in ("trivial", "c2:inner", "c3:inner", "c2:outer", "c3:outer", "s3"):
        try:
            models.append(build_galois_model(spec, rs))
        except InvalidInput:
            pass
    return models


@pytest.mark.parametrize("type_name, bound", [
    ("A1", 4), ("A2", 4), ("C2", 4), ("G2", 4), ("A3", 4), ("B3", 4), ("C3", 4), ("D4", 2),
])
def test_is_elliptic_agrees_with_the_layer_criterion(type_name, bound):
    """The definition against the layer criterion on the Langlands
    normalization: every family fixing a canonical s of the grid, its
    localizations at every place, and the normalized classification
    representatives."""
    rs = build_root_system(type_name)
    weyl = enumerate_weyl(rs)
    verdicts = set()
    for galois in _presets(rs):
        data = [e.datum for e in classify_elliptic(rs, galois).classes]
        for s in _canonical_s_reps(rs, bound):
            base = standard_bprime_base(rs, s)
            for family in _families_fixing(rs, galois, s, weyl):
                d = EndoscopicDatum(rs, galois, s, family, base, _validate=False)
                data.append(d)
                data.extend(localize(d, v) for v in places(galois))
        for d in data:
            verdict = is_elliptic(d)
            assert verdict == layer_criterion_elliptic(d), (galois.names, d.s, d.key())
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_data_with_free_parts_are_never_elliptic():
    """A free part of s is a Gamma-fixed direction off the span of the base."""
    rng = random.Random(909)
    checked = 0
    for type_name in ("A1", "A2", "C2", "G2", "A3"):
        rs = build_root_system(type_name)
        weyl = enumerate_weyl(rs)
        for galois in _presets(rs):
            for _ in range(8):
                s = _random_torus(rng, rs.rank, rng.choice((1, 2)), force_free=True)
                assert not s.is_finite_order()
                base = standard_bprime_base(rs, s)
                for family in _families_fixing(rs, galois, s, weyl)[:4]:
                    d = EndoscopicDatum(rs, galois, s, family, base, _validate=False)
                    assert is_elliptic(d) is False, (type_name, galois.names, s)
                    checked += 1
    assert checked > 100


def test_localize_cases(a1, a2):
    d_swap, g2 = a1_swap_datum(a1)
    ps = places(g2)
    at_trivial = localize(d_swap, ps[0])
    assert len(at_trivial.galois) == 1
    assert is_elliptic(at_trivial) is False  # split torus locally
    at_full = localize(d_swap, ps[1])
    assert len(at_full.galois) == 2
    assert is_elliptic(at_full) is True
    d1, _, g3 = a2_rotation_data(a2)
    full = next(p for p in places(g3) if len(p.subgroup) == 3)
    again = localize(d1, full)
    assert len(again.galois) == 3
    assert equivalent_bruteforce(again, again) is not None


def test_kernel_tower(a2):
    d1, _, _ = a2_rotation_data(a2)
    assert kernel_tower_ok(d1)
    g = build_galois_model("c2:outer", a2)
    assert kernel_tower_ok(principal_datum(a2, g))


def test_make_datum_rejects_value_not_fixing_s(a1):
    g = build_galois_model("c2:inner", a1)
    s = TorusElement([F(1, 4)])
    with pytest.raises(InvalidInput, match="fix"):
        make_datum(a1, g, s, {"g": WeylElement([(-1,)])})


def test_make_datum_rejects_broken_cocycle_identity(a1):
    """Non-homomorphic values over Z/4 with s = -1, where nothing can absorb them."""
    g = build_galois_model("c4:inner", a1)
    swap = WeylElement([(-1,)])
    with pytest.raises(InvalidInput, match="homomorphism"):
        # g1^2 = g2, so the value at g2 must be swap^2 = 1, not swap
        make_datum(a1, g, TorusElement([F(1, 2)]), {"g1": swap, "g2": swap})


def test_make_datum_absorbs_ambiguity_at_s_one(a1):
    """With s = 1 the whole Weyl group is the ambiguity: any raw values present
    the principal datum."""
    g = build_galois_model("c4:inner", a1)
    swap = WeylElement([(-1,)])
    d = make_datum(a1, g, TorusElement([F(0)]), {"g1": swap, "g2": swap})
    assert all(f.is_identity() for f in d.family)


def test_make_datum_rejects_unknown_element(a1):
    g = build_galois_model("c2:inner", a1)
    with pytest.raises(InvalidInput, match="unknown element"):
        make_datum(a1, g, TorusElement([F(0)]), {"h": WeylElement([(-1,)])})
    with pytest.raises(InvalidInput, match="not an element index"):
        make_datum(a1, g, TorusElement([F(0)]), {7: WeylElement([(-1,)])})
    with pytest.raises(InvalidInput, match="more values"):
        make_datum(a1, g, TorusElement([F(0)]), [WeylElement([(1,)])] * 3)


def _reflection_closure(rs, roots):
    """The group generated by the reflections in ``roots``, by closure."""
    gens = [WeylElement(tuple(rs.reflect(b, a) for a in rs.simple_roots)) for b in roots]
    group = {WeylElement.identity(rs.rank)}
    frontier = list(group)
    while frontier:
        frontier = {g * h for h in frontier for g in gens} - group
        group |= frontier
    return group


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_borel_canonicalization_against_reflection_closure(name):
    """For s on the order-4 grid and each w in W fixing s, the stored action
    preserves the standard Borel and differs from w by an element of the
    centralizer's Weyl group."""
    rs = build_root_system(name)
    trivial = build_galois_model("trivial", rs)
    for coords in product(range(4), repeat=rs.rank):
        s = TorusElement([F(c, 4) for c in coords])
        base = standard_bprime_base(rs, s)
        sub_weyl = _reflection_closure(rs, base)
        for w in enumerate_weyl(rs):
            if torus_action(w, s) != s:
                continue
            (a,) = make_datum_from_family(rs, trivial, s, [w]).family
            assert {a(b) for b in base} == set(base)
            assert a * w.inverse() in sub_weyl


def test_raw_form_preserves_identity(c2):
    g = build_galois_model("trivial", c2)
    d = make_datum(c2, g, TorusElement([F(1, 2), F(0)]), {})
    nd, _ = langlands_normalize(d)
    back = raw_form(nd)
    assert back.s == nd.s
    assert equivalent(back, d) is not None


def test_layers_of_a_large_order_element_stay_sparse(a1):
    """s = 1/200000 on A1 has two nonempty level sets out of 200000; the
    layers hold X_1 alone, with no work per residue of d."""
    g = build_galois_model("trivial", a1)
    d = make_datum(a1, g, TorusElement([F(1, 200000)]), {})
    nd, ld = langlands_normalize(d)
    assert ld.d == 200000 and ld.layers == ((1, frozenset({(1,)})),)
    assert ld.layer(0) == frozenset() and ld.layer(7) == frozenset()
    a4 = build_root_system("A4")
    big = make_datum(a4, build_galois_model("trivial", a4),
                     TorusElement([F(1, 97), F(1, 99), F(1, 101), F(1, 103)]), {})
    assert equivalent(big, big).is_identity()


def _assert_layers_match_the_oracle(datum):
    """The layered construction on the raw datum, carried over by u, gives
    the normalized layers; d is ord(s), and the shape is Delta exactly when
    the layered set has rank elements."""
    rs = datum.rs
    _, ld = langlands_normalize(datum)
    d, layers = layered_construction(rs, datum.s, datum.bprime_base)
    assert ld.d == d == datum.s.order()
    assert ld.layers == tuple((k, frozenset(ld.u(r) for r in x)) for k, x in layers)
    size = sum(len(x) for _, x in layers)
    assert (ld.shape, size) in (("Delta", rs.rank), ("DeltaA", rs.rank + 1))


@st.composite
def finite_order_elements(draw):
    """A type through rank 8 and a torsion point of denominator 1-12 or 211,
    moved by 0-8 random simple reflections."""
    rs = build_root_system(draw(st.sampled_from(ALL_TYPES_THROUGH_RANK_8)))
    den = draw(st.sampled_from(list(range(1, 13)) + [211]))
    s = TorusElement([F(draw(st.integers(0, den - 1)), den) for _ in range(rs.rank)])
    for j in draw(st.lists(st.integers(0, rs.rank - 1), max_size=8)):
        s = torus_action(simple_reflections(rs)[j], s)
    return rs, s


@settings(max_examples=250, deadline=None)
@given(finite_order_elements())
def test_kac_layers_match_the_layered_construction(case):
    rs, s = case
    _assert_layers_match_the_oracle(make_datum(rs, build_galois_model("trivial", rs), s, {}))


@pytest.mark.parametrize("type_name, spec", [
    ("A1", "c2:inner"), ("A2", "c3:inner"), ("A2", "c2:outer"), ("C2", "c2:inner"),
    ("G2", "c2:inner"), ("A3", "c2:outer"), ("B3", "c2:inner"), ("C3", "c2:inner"),
])
def test_kac_layers_match_the_layered_construction_on_inventories(type_name, spec):
    """The same check on the inventory data at the default order bound;
    all but G2 hold data with nontrivial cocycles."""
    from endatlas.elliptic import brute_force_inventory
    from endatlas.suites import default_order_bound

    rs = build_root_system(type_name)
    g = build_galois_model(spec, rs)
    inventory = brute_force_inventory(rs, g, default_order_bound(rs, g))
    assert inventory
    for datum in inventory:
        _assert_layers_match_the_oracle(datum)


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_regular_elements_of_exceptional_types(name):
    """Regular s of order 211: a Weyl conjugate gets a certified witness and
    an independent draw is inequivalent, without walking the W-orbit."""
    rs = build_root_system(name)
    g = build_galois_model("trivial", rs)
    rng = random.Random(211)

    def regular():
        while True:
            s = TorusElement([F(rng.randrange(1, 211), 211) for _ in range(rs.rank)])
            if all(s.value_at(r)[0] for r in rs.all_roots):
                return s

    s = regular()
    w = WeylElement.identity(rs.rank)
    for _ in range(40):
        w = simple_reflections(rs)[rng.randrange(rs.rank)] * w
    d1 = make_datum(rs, g, s, {})
    d2 = make_datum(rs, g, torus_action(w, s), {})
    witness = equivalent(d1, d2)
    assert witness is not None and witness_transports(d1, d2, witness)
    assert equivalent(d1, make_datum(rs, g, regular(), {})) is None


BOREL_SYSTEMS = [(str(ct),) for ct in ALL_TYPES_THROUGH_RANK_8] + [
    ("B2", "C2"), ("A1", "A1", "A1"), ("G2", "A2"),
]


@pytest.mark.parametrize("types", BOREL_SYSTEMS, ids="x".join)
def test_standard_borel_base_read_off_rho_matches_the_difference_search(types):
    """80 random s per system: torsion denominators 1-6 and 0-2 free
    generators whose exponents are mostly 0, so the centralizers are large."""
    rs = product_root_system(types)
    rng = random.Random("borel-" + "x".join(types))
    for _ in range(80):
        den, n_gens = rng.randint(1, 6), rng.randint(0, 2)
        torsion = [F(rng.randrange(den), den) for _ in range(rs.rank)]
        free = [[F(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(n_gens)] for _ in range(rs.rank)]
        s = TorusElement(torsion, free)
        assert _standard_borel(rs, s) == difference_search_borel(rs, s), s
