"""Restriction of scalars: induction and descent of data between a subgroup
model on a base system and the ambient model on the induced product."""

import random
from fractions import Fraction

import pytest

from endatlas.errors import InvalidInput
from endatlas.galois import build_galois_model
from endatlas.rootsys import build_root_system
from endatlas.torus import TorusElement
from endatlas.weyl import enumerate_weyl
from endatlas.elliptic import _families_fixing
from endatlas.endodata import (
    EndoscopicDatum,
    equivalent,
    equivalent_bruteforce,
    is_elliptic,
    make_datum,
    principal_datum,
    standard_bprime_base,
    transport_datum,
    witness_transports,
)
from endatlas.reduction import (
    equivalence_transfers_under_shapiro,
    finite_order_reduction,
    make_induced_model,
    shapiro_descend,
    shapiro_induce,
)
from endatlas.suites import shapiro_configurations, shapiro_suite, _base_data_for

from conftest import (
    HAND_S3_NAMES,
    hand_cyclic,
    hand_s3_table,
    hand_shapiro_configurations,
    omega_sending_zero_to,
    out_group,
)

F = Fraction


def _z2_model(a1):
    base = build_galois_model("trivial", a1)
    return make_induced_model(base, ["e", "g"], [[0, 1], [1, 0]], [0])


def test_shapiro_configurations_are_the_hand_written_groups():
    types = ("A1", "A2", "C2", "G2", "B3", "C3")
    assert shapiro_configurations(types) == hand_shapiro_configurations(types)


def test_induced_model_shape(a1):
    model = _z2_model(a1)
    assert model.rs.rank == 2 and not model.rs.is_simple
    assert model.reps == (0, 1)
    # the ambient generator swaps the two copies
    assert model.galois.action[1].perm == (0, 2, 1)


def test_induce_diagonal_torus(a1):
    model = _z2_model(a1)
    x = make_datum(a1, model.base_galois, TorusElement([F(1, 2)]), {})
    y = shapiro_induce(x, model)
    assert y.s.torsion == (F(1, 2), F(1, 2))
    assert y.rs is model.rs


def test_descend_projects_at_identity_coset(a1):
    model = _z2_model(a1)
    x = make_datum(a1, model.base_galois, TorusElement([F(1, 2)]), {})
    y = shapiro_induce(x, model)
    assert shapiro_descend(y, model) == x


def test_trivial_induction_is_identity(a1):
    base = build_galois_model("c2:inner", a1)
    model = make_induced_model(base, base.names, base.table, [0, 1])
    assert model.degree == 1
    sw = omega_sending_zero_to(a1, 1)
    x = make_datum(a1, base, TorusElement([F(1, 2)]), {"g": sw.aut})
    y = shapiro_induce(x, model)
    assert shapiro_descend(y, model) == x
    assert y.s.torsion == x.s.torsion


def test_normalizing_a_product_datum_is_an_input_error(a1):
    """The Langlands normalization is defined for simple types only; an
    induced datum on A1 x A1 is refused rather than normalized."""
    base = build_galois_model("c2:inner", a1)
    model = make_induced_model(base, *hand_cyclic(4), [0, 2])
    x = make_datum(a1, base, TorusElement([F(1, 2)]), {})
    y = shapiro_induce(x, model)
    with pytest.raises(InvalidInput, match="simple"):
        out_group(y)


def test_ellipticity_transfers_under_induction(a1):
    """Induction keeps the verdict of the definition on the product system:
    the A1 inventories (elliptic), s = -1 with the trivial cocycle (not
    elliptic; the torus splits) and a datum with a free part."""
    verdicts = set()
    for t, spec, names, table, emb in shapiro_configurations(("A1",)):
        base = build_galois_model(spec, a1)
        model = make_induced_model(base, names, table, emb)
        split = make_datum(a1, base, TorusElement([F(1, 2)]), {})
        free = make_datum(a1, base, TorusElement([F(1, 2)], [(F(1),)]), {})
        assert not is_elliptic(split) and not is_elliptic(free)
        for x in _base_data_for(a1, base) + [split, free]:
            verdict = is_elliptic(x)
            assert is_elliptic(shapiro_induce(x, model)) == verdict, (spec, names, x.s)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_shapiro_suite_reports_an_ellipticity_mismatch(monkeypatch):
    monkeypatch.setattr("endatlas.suites.is_elliptic", lambda d: d.rs.is_simple)
    result = shapiro_suite(("A1",))
    assert not result.ok
    assert any(f.endswith("ellipticity did not transfer") for f in result.failures)


def test_reducing_a_product_datum_is_an_input_error(a1):
    """The finite-order reduction reads the marks of a simple type; an induced
    datum with a free part on A1 x A1 is refused, and equivalent decides it
    without the reduction."""
    model = _z2_model(a1)
    x = make_datum(a1, model.base_galois, TorusElement([F(1, 2)], [(F(1),)]), {})
    y = shapiro_induce(x, model)
    with pytest.raises(InvalidInput, match="simple"):
        finite_order_reduction(y, y)
    assert equivalent(y, y).is_identity()


def test_embedding_validation(a1):
    base = build_galois_model("c2:inner", a1)
    with pytest.raises(InvalidInput):
        make_induced_model(base, ["e", "g"], [[0, 1], [1, 0]], [0, 0])
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    with pytest.raises(InvalidInput, match="homomorphism"):
        make_induced_model(base, ["e", "a", "b", "c"], z4, [0, 1])
    trivial = build_galois_model("trivial", a1)
    with pytest.raises(InvalidInput, match="inverse"):
        # g . g = g: the ambient table is no group
        make_induced_model(trivial, ["e", "g"], [[0, 1], [1, 1]], [0])


@pytest.mark.parametrize("base_type", ["A1", "A2"])
def test_descend_induce_identity_battery(base_type):
    """descend . induce is the identity on the bounded inventory of each config."""
    for t, spec, names, table, emb in shapiro_configurations((base_type,)):
        rs = build_root_system(t)
        base = build_galois_model(spec, rs)
        model = make_induced_model(base, names, table, emb)
        for x in _base_data_for(rs, base):
            assert shapiro_descend(shapiro_induce(x, model), model) == x


def test_induce_descend_up_to_equivalence(a1):
    model = _z2_model(a1)
    x = make_datum(a1, model.base_galois, TorusElement([F(1, 2)]), {})
    y = shapiro_induce(x, model)
    again = shapiro_induce(shapiro_descend(y, model), model)
    assert equivalent(again, y) is not None


def test_equivalence_transfers_both_ways(a2):
    """S3 with its index-2 cyclic subgroup over A2: inequivalent pairs stay so."""
    base = build_galois_model("c3:inner", a2)
    model = make_induced_model(base, list(HAND_S3_NAMES), hand_s3_table(), [0, 1, 2])
    r1 = omega_sending_zero_to(a2, 1)
    r2 = omega_sending_zero_to(a2, 2)
    s = TorusElement([F(1, 3), F(1, 3)])
    x1 = make_datum(a2, base, s, {"g1": r1.aut, "g2": r2.aut})
    x2 = make_datum(a2, base, s, {"g1": r2.aut, "g2": r1.aut})
    assert equivalent(x1, x2) is None
    assert equivalence_transfers_under_shapiro(x1, x2, model)
    assert equivalence_transfers_under_shapiro(x1, x1, model)
    x3 = principal_datum(a2, base)
    assert equivalence_transfers_under_shapiro(x1, x3, model)


def test_datum_must_match_model(a1, a2):
    model = _z2_model(a1)
    stranger = principal_datum(a2, build_galois_model("trivial", a2))
    with pytest.raises(InvalidInput):
        shapiro_induce(stranger, model)


def test_weyl_twisted_pair_transfers(a2):
    """Equivalent base data differing by a Weyl twist stay equivalent upstairs."""
    from endatlas.endodata import transport_datum
    from endatlas.weyl import WeylElement

    base = build_galois_model("trivial", a2)
    model = make_induced_model(base, ["e", "g"], [[0, 1], [1, 0]], [0])
    x = make_datum(a2, base, TorusElement([F(1, 2), F(0)]), {})
    s1 = WeylElement(tuple(a2.reflect_simple(0, a2.simple_roots[i]) for i in range(2)))
    twisted = transport_datum(x, s1)
    assert equivalent(x, twisted) is not None
    assert equivalence_transfers_under_shapiro(x, twisted, model)
    y1 = shapiro_induce(x, model)
    y2 = shapiro_induce(twisted, model)
    assert equivalent(y1, y2) is not None


def test_equivalent_agrees_with_brute_force_on_induced_systems():
    """equivalent against exhaustive Weyl search on the induced product
    systems of the A1, A2, C2 and G2 battery: the induced base inventory and
    induced random base data with 0-1 free generators, against Weyl
    transports of the same; every witness is certified."""
    rng = random.Random(8)
    verdicts, free_pairs = set(), 0
    for t, spec, names, table, emb in shapiro_configurations(("A1", "A2", "C2", "G2")):
        rs = build_root_system(t)
        base = build_galois_model(spec, rs)
        model = make_induced_model(base, names, table, emb)
        gens = rng.randrange(2)
        s = TorusElement(
            [F(rng.randrange(4), 4) for _ in range(rs.rank)],
            [tuple(F(rng.randrange(-1, 2)) for _ in range(gens)) for _ in range(rs.rank)]
            if gens else None,
        )
        fams = _families_fixing(rs, base, s, enumerate_weyl(rs))
        drawn = [
            shapiro_induce(EndoscopicDatum(rs, base, s, f, standard_bprime_base(rs, s)), model)
            for f in rng.sample(fams, min(2, len(fams)))
        ]
        pool = [shapiro_induce(x, model) for x in _base_data_for(rs, base)] + drawn
        weyl = enumerate_weyl(model.rs)
        for k in range(6):
            side = drawn if drawn and k % 2 else pool
            d1 = rng.choice(side)
            d2 = transport_datum(rng.choice(side), rng.choice(weyl))
            fast = equivalent(d1, d2)
            assert (fast is None) == (equivalent_bruteforce(d1, d2) is None), (t, spec, k)
            if fast is not None:
                assert witness_transports(d1, d2, fast)
            verdicts.add(fast is None)
            free_pairs += not d2.s.is_finite_order()
    assert verdicts == {True, False} and free_pairs
