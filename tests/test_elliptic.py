"""Pair enumeration, the pair -> datum construction, classification, and the
brute-force inventory that certifies it."""

from fractions import Fraction

import pytest

from endatlas.errors import CapExceeded, InternalConsistencyError, InvalidInput
from endatlas.galois import build_galois_model
from endatlas.rootsys import ALL_TYPES_THROUGH_RANK_8, build_root_system
from endatlas.torus import TorusElement
from endatlas.endodata import equivalent, is_elliptic, langlands_normalize, principal_datum
from endatlas.elliptic import (
    DEFAULT_WORK_CAP,
    EllipticPair,
    _build_inventory,
    _canonical_s_reps,
    brute_force_inventory,
    classify_elliptic,
    enumerate_pairs,
    match_classification,
    pair_to_datum,
    verify_sigma_structure,
)

from endatlas.weyl import omega_group

from conftest import (
    bfs_canonical_s_reps,
    omega_conjugating,
    out_group,
    pair_equivalent,
    pairwise_classes,
)

F = Fraction


def test_pair_counts_a1(a1):
    gt = build_galois_model("trivial", a1)
    assert [sorted(p.orbit) for p in enumerate_pairs(a1, gt)] == [[0], [1]]
    g2 = build_galois_model("c2:inner", a1)
    pairs = enumerate_pairs(a1, g2)
    assert len(pairs) == 3
    assert sorted(tuple(sorted(p.orbit)) for p in pairs) == [(0,), (0, 1), (1,)]


def test_pair_counts_a2_z3(a2):
    g = build_galois_model("c3:inner", a2)
    pairs = enumerate_pairs(a2, g)
    assert len(pairs) == 5
    full = [p for p in pairs if p.orbit == frozenset({0, 1, 2})]
    assert len(full) == 2  # one per nontrivial cocycle


def test_pair_to_datum_principal(a1):
    gt = build_galois_model("trivial", a1)
    pair = next(p for p in enumerate_pairs(a1, gt) if p.orbit == frozenset({0}))
    d = pair_to_datum(a1, gt, pair)
    assert d.s.is_identity()
    assert d.langlands.shape == "Delta"


def test_pair_to_datum_a1_torus(a1):
    g = build_galois_model("c2:inner", a1)
    pair = next(p for p in enumerate_pairs(a1, g) if len(p.orbit) == 2)
    d = pair_to_datum(a1, g, pair)
    assert d.s.torsion == (F(1, 2),)
    assert d.langlands.d == 2
    assert is_elliptic(d)


def test_pair_to_datum_c2_orbit_a1(c2):
    g = build_galois_model("trivial", c2)
    pair = next(p for p in enumerate_pairs(c2, g) if p.orbit == frozenset({1}))
    d = pair_to_datum(c2, g, pair)
    assert d.s.torsion == (F(1, 2), F(0))
    assert d.langlands.d == 2
    report = classify_elliptic(c2, g)
    entry = next(e for e in report.classes if e.pair.orbit == frozenset({1}))
    assert [str(ct) for ct, _ in entry.dual_components] == ["A1", "A1"]
    assert [list(nodes) for _, nodes in entry.dual_components] == [[0], [2]]


def test_pair_equivalence_examples(a1, a2):
    gt2 = build_galois_model("c2:inner", a1)
    pairs = enumerate_pairs(a1, gt2)
    p0 = next(p for p in pairs if p.orbit == frozenset({0}))
    p1 = next(p for p in pairs if p.orbit == frozenset({1}))
    assert pair_equivalent(a1, gt2, p0, p0) is not None
    om = pair_equivalent(a1, gt2, p0, p1)
    assert om is not None and om.aut(0) == 1
    g3 = build_galois_model("c3:inner", a2)
    full = [p for p in enumerate_pairs(a2, g3) if len(p.orbit) == 3]
    assert pair_equivalent(a2, g3, full[0], full[1]) is None


KNOWN_CLASS_COUNTS = [
    ("A1", "trivial", 1),
    ("A1", "c2:inner", 2),
    ("A2", "c3:inner", 3),
    ("A2", "trivial", 1),
    ("C2", "trivial", 2),
    ("G2", "trivial", 3),
]


@pytest.mark.parametrize("type_name,galois_spec,count", KNOWN_CLASS_COUNTS)
def test_known_classification_counts(type_name, galois_spec, count):
    rs = build_root_system(type_name)
    g = build_galois_model(galois_spec, rs)
    assert classify_elliptic(rs, g).class_count == count


@pytest.mark.parametrize(
    "type_name,galois_spec,bound,count",
    [("A1", "trivial", 4, 1), ("A1", "c2:inner", 4, 2), ("A2", "c3:inner", 6, 3)],
)
def test_inventory_counts_are_independent_oracle(type_name, galois_spec, bound, count):
    rs = build_root_system(type_name)
    g = build_galois_model(galois_spec, rs)
    inv = brute_force_inventory(rs, g, bound)
    assert len(inv) == count
    for d in inv:
        assert is_elliptic(d)


@pytest.mark.parametrize(
    "type_name,galois_spec,bound",
    [("A1", "c2:inner", 4), ("A2", "c3:inner", 6), ("C2", "c2:inner", 4)],
)
def test_classification_matches_inventory(type_name, galois_spec, bound):
    rs = build_root_system(type_name)
    g = build_galois_model(galois_spec, rs)
    assert match_classification(classify_elliptic(rs, g), brute_force_inventory(rs, g, bound))


def test_inventory_cap_policy():
    rs = build_root_system("E8")
    g = build_galois_model("trivial", rs)
    with pytest.raises(CapExceeded):
        brute_force_inventory(rs, g, 2)


def test_inventory_is_built_once_per_model_and_bound(a2):
    first = brute_force_inventory(a2, build_galois_model("c3:inner", a2), 6)
    # a new model object with the same table hits the stored inventory
    again = brute_force_inventory(a2, build_galois_model("c3:inner", a2), 6)
    assert again == first and again is not first
    assert again == _build_inventory(
        a2, build_galois_model("c3:inner", a2), 6, DEFAULT_WORK_CAP
    )
    first.clear()
    assert brute_force_inventory(a2, build_galois_model("c3:inner", a2), 6) == again
    assert len(again) == 3
    # the cap is checked before the stored inventory is looked up
    with pytest.raises(CapExceeded):
        brute_force_inventory(a2, build_galois_model("c3:inner", a2), 6, cap=1)


def test_sigma_structure_all_small_pairs(a1, a2, c2):
    configs = [
        (a1, "trivial"),
        (a1, "c2:inner"),
        (a2, "c3:inner"),
        (a2, "c2:outer"),
        (c2, "trivial"),
        (c2, "c2:inner"),
    ]
    for rs, spec in configs:
        g = build_galois_model(spec, rs)
        for pair in enumerate_pairs(rs, g):
            rep = verify_sigma_structure(rs, g, pair)
            assert rep.ok, (str(rs.type), spec, sorted(pair.orbit), rep.violations)


def test_constructed_data_round_trip_layers(c2):
    """The raw normalization of a constructed datum recovers the orbit at k=1."""
    g = build_galois_model("c2:inner", c2)
    from endatlas.endodata import make_datum

    for pair in enumerate_pairs(c2, g):
        d = sum(c2.marks[i] for i in pair.orbit)
        if d == 1:
            continue
        torsion = [F(1, d) if (i + 1) in pair.orbit else F(0) for i in range(c2.rank)]
        raw = make_datum(c2, g, TorusElement(torsion), pair.cocycle)
        nd, ld = langlands_normalize(raw)
        assert ld.shape == "DeltaA" and ld.d == d
        assert ld.layer(1) == frozenset(c2.node_root(i) for i in pair.orbit)


TWO_ROUTE_CONFIGS = [
    (t, spec)
    for t in ("A1", "A2", "A3", "A4", "B3", "C2", "C3", "G2", "D4")
    for spec in ("trivial", "c2:inner", "c3:inner", "c2:outer", "c3:outer", "s3")
    if (spec != "c2:outer" or t in ("A2", "A3", "A4", "D4"))
    and (spec not in ("c3:outer", "s3") or t == "D4")
]


@pytest.mark.parametrize("type_name, spec", TWO_ROUTE_CONFIGS)
def test_pair_to_datum_equals_the_normalized_raw_datum(type_name, spec):
    """The hand-built datum of every pair is the normalization of the raw
    datum on the same s and cocycle, in everything but u."""
    from endatlas.elliptic import _orbit_torus
    from endatlas.endodata import make_datum

    rs = build_root_system(type_name)
    g = build_galois_model(spec, rs)
    for pair in enumerate_pairs(rs, g):
        built = pair_to_datum(rs, g, pair)
        _, s = _orbit_torus(rs, pair)
        normed = langlands_normalize(make_datum(rs, g, s, pair.cocycle))[0]
        assert built.s == normed.s
        assert built.family == normed.family
        assert built.bprime_base == normed.bprime_base
        ld1, ld2 = built.langlands, normed.langlands
        assert (ld1.d, ld1.layers, ld1.shape) == (ld2.d, ld2.layers, ld2.shape)


def test_equivalence_relation_on_inventory(a2, c2):
    """Reflexive, symmetric, transitive on full inventories with witnesses."""
    for rs, spec, bound in [(a2, "c3:inner", 6), (c2, "c2:inner", 4)]:
        g = build_galois_model(spec, rs)
        inv = brute_force_inventory(rs, g, bound)
        for i, x in enumerate(inv):
            assert equivalent(x, x) is not None
            for y in inv[i + 1:]:
                wxy = equivalent(x, y)
                wyx = equivalent(y, x)
                assert (wxy is None) == (wyx is None)
    g = build_galois_model("c3:inner", a2)
    # transitivity across three pairwise-inequivalent entries is vacuous;
    # exercise it on the pair classes instead
    pairs = enumerate_pairs(a2, g)
    for p in pairs:
        for q in pairs:
            for r in pairs:
                pq = pair_equivalent(a2, g, p, q)
                qr = pair_equivalent(a2, g, q, r)
                pr = pair_equivalent(a2, g, p, r)
                if pq is not None and qr is not None:
                    assert pr is not None


def test_marks_constant_under_pair_action(d4):
    g = build_galois_model("s3", d4)
    for pair in enumerate_pairs(d4, g):
        for a in range(len(g)):
            sp = pair.cocycle.sigma_prime(g, a)
            for node in d4.affine_nodes:
                assert d4.marks[sp(node)] == d4.marks[node]


def test_every_constructed_datum_is_elliptic(d4):
    g = build_galois_model("s3", d4)
    for pair in enumerate_pairs(d4, g):
        assert is_elliptic(pair_to_datum(d4, g, pair))


SPLIT_CLASS_COUNTS = [
    # with a trivial Galois model the classes are the Omega-orbits of affine
    # nodes: leg rotation for E6, the chain flip for E7, nothing for E8/F4
    ("E6", 3),
    ("E7", 5),
    ("E8", 9),
    ("F4", 5),
]


@pytest.mark.parametrize("type_name,count", SPLIT_CLASS_COUNTS)
def test_split_exceptional_class_counts(type_name, count):
    rs = build_root_system(type_name)
    g = build_galois_model("trivial", rs)
    assert classify_elliptic(rs, g).class_count == count


@pytest.mark.parametrize(
    "type_name,galois_spec",
    [("A3", "c2:outer"), ("A3", "c4:inner"), ("B3", "c2:inner")],
)
def test_bijection_on_extra_configurations(type_name, galois_spec):
    from endatlas.suites import bijection_suite

    result = bijection_suite(type_name, galois_spec)
    assert result.ok, result.failures


@pytest.mark.parametrize("type_name,galois_spec", [("A1", "c2:inner"), ("A2", "c3:inner"), ("C2", "c2:inner")])
def test_injectivity_inequivalent_pairs_give_inequivalent_data(type_name, galois_spec):
    rs = build_root_system(type_name)
    g = build_galois_model(galois_spec, rs)
    pairs = enumerate_pairs(rs, g)
    data = [pair_to_datum(rs, g, p) for p in pairs]
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            pv = pair_equivalent(rs, g, pairs[i], pairs[j]) is not None
            dv = equivalent(data[i], data[j]) is not None
            assert pv == dv, (sorted(pairs[i].orbit), sorted(pairs[j].orbit))


@pytest.mark.parametrize(
    "type_name,galois_spec",
    [("A1", "c2:inner"), ("A2", "c3:inner"), ("A2", "c2:outer")],
)
def test_families_fixing_against_the_filtered_product(type_name, galois_spec):
    """Oracle: every choice of one Borel-normalized candidate per element,
    kept when it is a homomorphism.  The generator of these cyclic groups is
    element 1 and the identity has one candidate, so the product order over
    all elements is the order ``_families_fixing`` promises."""
    from itertools import product

    from endatlas.elliptic import _canonical_s_reps, _families_fixing
    from endatlas.endodata import _standard_borel, canonicalize_action
    from endatlas.weyl import enumerate_weyl, torus_action

    rs = build_root_system(type_name)
    g = build_galois_model(galois_spec, rs)
    W = enumerate_weyl(rs)
    n = len(g)
    for s in _canonical_s_reps(rs, 4):
        sub_pos, base = _standard_borel(rs, s)
        cands = []
        for a in range(n):
            fixing = [w * g.phi_lattice(a) for w in W]
            fixing = [canonicalize_action(rs, sub_pos, base, m)
                      for m in fixing if torus_action(m, s) == s]
            cands.append(sorted(set(fixing), key=lambda m: m.images))
        want = [
            list(f) for f in product(*cands)
            if all(f[g.table[a][b]] == f[a] * f[b] for a in range(n) for b in range(n))
        ]
        assert _families_fixing(rs, g, s, W) == want


@pytest.mark.parametrize(
    "name,bound",
    [("A1", 8), ("A2", 6), ("A3", 4), ("A4", 3), ("C2", 6), ("C3", 4), ("G2", 6), ("D4", 3)],
)
def test_canonical_s_reps_match_the_bfs_closure(name, bound):
    """The Kac-coordinate key keeps the same grid points, in the same order,
    as closing every W-orbit by breadth-first search."""
    rs = build_root_system(name)
    assert _canonical_s_reps(rs, bound) == bfs_canonical_s_reps(rs, bound)


@pytest.mark.parametrize("type_name, spec", TWO_ROUTE_CONFIGS)
def test_classify_reads_shape_and_out_off_the_pair(type_name, spec):
    """The shape is Delta exactly for an orbit of weight 1, and Out is the
    Omega stabilizer of the orbit and the action: the values the layer
    criterion gives on the normalized datum."""
    rs = build_root_system(type_name)
    galois = build_galois_model(spec, rs)
    for entry in classify_elliptic(rs, galois).classes:
        assert entry.shape == ("Delta" if entry.d == 1 else "DeltaA")
        assert entry.shape == langlands_normalize(entry.datum)[1].shape
        if entry.d == 1:
            assert entry.out_size is None
            continue
        sp = [entry.pair.cocycle.sigma_prime(galois, a) for a in range(len(galois))]
        orbit = [entry.pair.orbit]
        stabilizer = list(omega_conjugating(rs, orbit, orbit, sp, sp))
        assert entry.out_size == len(stabilizer) == len(out_group(entry.datum))


OMEGA_ORBIT_CONFIGS = [
    (str(ct), spec)
    for ct in ALL_TYPES_THROUGH_RANK_8
    if ct.rank <= 4
    for spec in ("trivial", "c2:inner", "c3:inner", "c2:outer")
    if spec != "c2:outer" or str(ct) in ("A2", "A3", "A4", "D4")
] + [("D4", "s3"), ("D4", "c3:outer"), ("E6", "c2:outer"), ("E6", "c3:inner")]


@pytest.mark.parametrize("type_name, spec", OMEGA_ORBIT_CONFIGS)
def test_omega_orbits_are_the_pairwise_classes(type_name, spec):
    """The Omega-orbits of the pairs are the classes of the pairwise search,
    with the same least representatives in the same order, and Out is the
    number of Omega elements the pairwise search finds fixing the
    representative (orbit-stabilizer gives the class size)."""
    rs = build_root_system(type_name)
    g = build_galois_model(spec, rs)
    classes = pairwise_classes(rs, g, enumerate_pairs(rs, g))
    report = classify_elliptic(rs, g)
    reps = sorted((min(cl, key=EllipticPair.sort_key) for cl in classes), key=EllipticPair.sort_key)
    assert [e.pair for e in report.classes] == reps
    sizes = {min(cl, key=EllipticPair.sort_key): len(cl) for cl in classes}
    for entry in report.classes:
        sp = [entry.pair.cocycle.sigma_prime(g, a) for a in range(len(g))]
        orbit = [entry.pair.orbit]
        stabilizer = list(omega_conjugating(rs, orbit, orbit, sp, sp))
        assert entry.out_size == (None if entry.d == 1 else len(stabilizer))
        assert sizes[entry.pair] * len(stabilizer) == len(omega_group(rs))


@pytest.mark.parametrize("edit", ["drop", "repeat"])
def test_classify_refuses_pairs_that_are_not_omega_stable(monkeypatch, a2, edit):
    """Dropping a pair leaves an Omega image outside the index; repeating one
    makes the identity row map two pairs to one index."""
    from endatlas import elliptic

    g = build_galois_model("c3:inner", a2)
    pairs = elliptic._pairs_with_actions(a2, g)
    edited = pairs[1:] if edit == "drop" else pairs + pairs[:1]
    monkeypatch.setattr(elliptic, "_pairs_with_actions", lambda rs, galois: list(edited))
    with pytest.raises(InternalConsistencyError):
        classify_elliptic(a2, g)


def test_one_cocycle_search_per_root_system_and_model(monkeypatch):
    """The order bound, the classification and the pair list of one
    A2/c3:inner bijection run share one search, also across model objects."""
    from endatlas import elliptic
    from endatlas.rootsys import CartanType, RootSystem
    from endatlas.suites import default_order_bound

    calls, search = [], elliptic.enumerate_cocycles

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(elliptic, "enumerate_cocycles", counting)
    rs = RootSystem([(CartanType("A", 2), 0)], _internal=True)
    default_order_bound(rs, build_galois_model("c3:inner", rs))
    classify_elliptic(rs, build_galois_model("c3:inner", rs))
    enumerate_pairs(rs, build_galois_model("c3:inner", rs))
    assert len(calls) == 1


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_weight_one_pairs_give_the_normalized_principal_datum(ct):
    """At d = 1, s = 1 and ``pair_to_datum`` builds the principal datum
    directly; it is the Langlands normalization of ``principal_datum``."""
    rs = build_root_system(ct)
    checked = 0
    for spec in ("trivial", "c2:outer", "c3:outer", "s3"):
        try:
            g = build_galois_model(spec, rs)
        except InvalidInput:
            continue  # the type has no such diagram automorphism
        want, wld = langlands_normalize(principal_datum(rs, g))
        for pair in enumerate_pairs(rs, g):
            if sum(rs.marks[i] for i in pair.orbit) != 1:
                continue
            got = pair_to_datum(rs, g, pair)
            ld = got.langlands
            assert got.key() == want.key()
            assert got.normalized and want.normalized
            assert (ld.layers, ld.shape, ld.d, ld.u) == (wld.layers, wld.shape, wld.d, wld.u)
            checked += 1
    assert checked >= 1


def _table_models(ct):
    """The classification tables of the benchmark's ``tables`` workload on
    one type: trivial, c2:inner, c2:outer where a flip exists, c3:inner
    through rank 6, and on D4 also s3 and c3:outer."""
    rs = build_root_system(ct)
    specs = ["trivial", "c2:inner", "c2:outer"] + (["c3:inner"] if ct.rank <= 6 else [])
    if str(ct) == "D4":
        specs += ["s3", "c3:outer"]
    models = []
    for spec in specs:
        try:
            models.append(build_galois_model(spec, rs))
        except InvalidInput:
            continue  # the type has no such diagram automorphism
    return rs, models


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_classified_data_are_the_public_pair_to_datum(ct):
    """``classify_elliptic`` builds each representative's datum from the
    actions of the enumeration; the validating public route gives the same
    datum, layers, shape and order."""
    rs, models = _table_models(ct)
    for g in models:
        for entry in classify_elliptic(rs, g).classes:
            public = pair_to_datum(rs, g, entry.pair)
            got, want = entry.datum.langlands, public.langlands
            assert entry.datum.key() == public.key()
            assert (got.layers, got.shape, got.d) == (want.layers, want.shape, want.d)
            assert (entry.shape, entry.d) == (want.shape, want.d)


def test_a_forged_pair_is_an_input_error_on_the_public_route(a2):
    """A map that is not a cocycle, a union of two orbits and a part of an
    orbit are all refused by ``pair_to_datum``."""
    from endatlas.galois import Cocycle
    from endatlas.weyl import DiagramAut

    g = build_galois_model("c2:inner", a2)
    identity = DiagramAut.identity(a2.rank)
    rotation = next(om.aut for om in omega_group(a2) if not om.aut.is_identity())
    forged = Cocycle((identity, rotation))  # c(g)c(g) = rotation^2 is not c(e)
    for orbit in (frozenset({0}), frozenset({0, 1, 2})):
        with pytest.raises(InvalidInput, match="not a cocycle"):
            pair_to_datum(a2, g, EllipticPair(cocycle=forged, orbit=orbit))
    trivial = Cocycle((identity, identity))
    with pytest.raises(InvalidInput, match="single orbit"):
        pair_to_datum(a2, g, EllipticPair(cocycle=trivial, orbit=frozenset({0, 1})))
    flip = build_galois_model("c2:outer", a2)
    two = next(p for p in enumerate_pairs(a2, flip) if len(p.orbit) == 2)
    part = EllipticPair(cocycle=two.cocycle, orbit=frozenset({min(two.orbit)}))
    with pytest.raises(InvalidInput, match="single orbit"):
        pair_to_datum(a2, flip, part)


@pytest.mark.parametrize("ct", ALL_TYPES_THROUGH_RANK_8, ids=str)
def test_default_order_bound_is_a_multiple_of_every_constructed_order(ct):
    """The inventory grid (1/B)^rank holds the elements of order n exactly
    when n divides B, so B is a multiple of every constructed order, at
    least twice the largest, and twice the largest wherever that already
    is such a multiple; over every preset model of the type."""
    from endatlas.suites import default_order_bound

    rs = build_root_system(ct)
    checked = 0
    for spec in ("trivial", "c2:inner", "c2:outer", "c3:inner", "c3:outer", "s3"):
        try:
            g = build_galois_model(spec, rs)
        except InvalidInput:
            continue  # the type has no such diagram automorphism
        orders = {sum(rs.marks[i] for i in p.orbit) for p in enumerate_pairs(rs, g)}
        bound = default_order_bound(rs, g)
        assert all(bound % n == 0 for n in orders), (spec, orders, bound)
        assert bound >= 2 * max(orders)
        if all(2 * max(orders) % n == 0 for n in orders):
            assert bound == 2 * max(orders)
        checked += 1
    assert checked >= 2
