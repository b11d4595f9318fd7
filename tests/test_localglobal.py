"""Local-global consistency and the restricted-place counterexample search."""

from fractions import Fraction

import pytest

from endatlas import localglobal
from endatlas.elliptic import brute_force_inventory
from endatlas.galois import build_galois_model, places
from endatlas.rootsys import build_root_system
from endatlas.endodata import principal_datum
from endatlas.localglobal import (
    check_local_global,
    counterexample_search,
    exhaustive_local_global,
)
from endatlas.suites import default_order_bound

from conftest import a1_swap_datum, a2_rotation_data

F = Fraction


def test_identical_data_equivalent_everywhere(a1):
    d, g = a1_swap_datum(a1)
    v = check_local_global(d, d)
    assert v.locally_equivalent_everywhere and v.globally_equivalent and v.consistent


def test_principal_vs_torus_inequivalent_at_full_place(a1):
    d, g = a1_swap_datum(a1)
    p = principal_datum(a1, g)
    v = check_local_global(p, d)
    by_place = {pl.name(g): (w is not None) for pl, w in v.local}
    # the torus orders differ, so they separate even at the trivial place
    assert by_place == {"<e>": False, "<g>": False}
    assert not v.globally_equivalent and v.consistent


def test_a2_rotation_pair_split_by_places(a2):
    d1, d2, g = a2_rotation_data(a2)
    v = check_local_global(d1, d2)
    trivial = next(w for pl, w in v.local if len(pl.subgroup) == 1)
    full = next(w for pl, w in v.local if len(pl.subgroup) == 3)
    assert trivial is not None and full is None
    assert not v.globally_equivalent and v.consistent


def test_exhaustive_consistency_small_configs():
    configs = [("A1", "trivial", 4), ("A1", "c2:inner", 4), ("A2", "c3:inner", 6)]
    for t, spec, bound in configs:
        rs = build_root_system(t)
        g = build_galois_model(spec, rs)
        rep = exhaustive_local_global(rs, g, bound)
        assert rep.ok, (t, spec, rep.falsifiers)
        assert rep.n_consistent == rep.n_pairs


def test_counterexample_at_trivial_place_only(a2):
    _, _, g = a2_rotation_data(a2)
    ps = places(g)
    cert = counterexample_search(a2, g, [ps[0]], 6)
    assert cert is not None
    assert cert.place_family == [ps[0]]
    # the certified pair really is the rotation pair: globally inequivalent
    from endatlas.endodata import equivalent

    assert equivalent(cert.datum1, cert.datum2) is None


def test_no_counterexample_with_full_place_set(a1, a2):
    d, g1 = a1_swap_datum(a1)
    assert counterexample_search(a1, g1, places(g1), 4) is None
    _, _, g2 = a2_rotation_data(a2)
    assert counterexample_search(a2, g2, places(g2), 6) is None


def test_no_counterexample_for_a1_even_restricted(a1):
    """Torus orders are place-independent, so A1/Z2 admits no certificate."""
    _, g = a1_swap_datum(a1)
    assert counterexample_search(a1, g, [places(g)[0]], 4) is None


def test_remark_mode_filters_by_simultaneous_ellipticity(a2):
    _, _, g = a2_rotation_data(a2)
    cert = counterexample_search(a2, g, [places(g)[0]], 6, remark_mode=True)
    # the rotation pair is elliptic at the full place but INEQUIVALENT there,
    # and at the trivial place both are non-elliptic: remark mode rejects it
    assert cert is None


def test_global_witness_restricts_to_local_witness(a2):
    d1, _, g = a2_rotation_data(a2)
    v = check_local_global(d1, d1)
    assert v.globally_equivalent
    for pl, w in v.local:
        assert w is not None


# the oracle-sweep configurations of endbench, plus D4/s3
AGREEMENT_CONFIGS = [
    ("A1", "trivial"), ("A1", "c2:inner"), ("A1", "c3:inner"),
    ("A2", "trivial"), ("A2", "c2:inner"), ("A2", "c2:outer"), ("A2", "c3:inner"),
    ("C2", "trivial"), ("C2", "c2:inner"), ("C2", "c3:inner"),
    ("C3", "trivial"), ("C3", "c3:inner"),
    ("G2", "trivial"), ("G2", "c2:inner"), ("G2", "c3:inner"),
    ("D4", "s3"),
]


@pytest.mark.parametrize("type_name, spec", AGREEMENT_CONFIGS)
def test_full_family_search_agrees_with_the_exhaustive_check(type_name, spec):
    """With every place in the family, ``counterexample_search`` finds a
    certificate exactly when ``exhaustive_local_global`` has a falsifier."""
    rs = build_root_system(type_name)
    g = build_galois_model(spec, rs)
    bound = default_order_bound(rs, g)
    report = exhaustive_local_global(rs, g, bound)
    assert (counterexample_search(rs, g, places(g), bound) is None) == report.ok


@pytest.mark.parametrize("type_name, spec", [("A2", "c3:inner"), ("C2", "c2:inner"), ("D4", "s3")])
def test_both_routines_flag_the_same_pairs_when_places_are_blind(monkeypatch, type_name, spec):
    """Every comparison over a proper subgroup is made to return a witness.
    On a cyclic model Gamma is itself a place, so nothing is flagged; on S3
    every place is proper, so every globally inequivalent pair is.  Pair by
    pair, the full-family search certifies exactly the flagged pairs."""
    rs = build_root_system(type_name)
    g = build_galois_model(spec, rs)
    bound = default_order_bound(rs, g)
    inventory = brute_force_inventory(rs, g, bound)
    real = localglobal.equivalent
    monkeypatch.setattr(
        localglobal, "equivalent",
        lambda x, y: real(x, y) if len(x.galois) == len(g) else "witness",
    )
    flagged = [(v.datum1, v.datum2) for v in exhaustive_local_global(rs, g, bound).falsifiers]
    inequivalent = [
        (a, b) for i, a in enumerate(inventory) for b in inventory[i + 1:] if real(a, b) is None
    ]
    assert flagged == (inequivalent if spec == "s3" else [])
    assert inequivalent
    for i, a in enumerate(inventory):
        for b in inventory[i + 1:]:
            monkeypatch.setattr(localglobal, "brute_force_inventory", lambda *_, **__: [a, b])
            cert = counterexample_search(rs, g, places(g), bound)
            assert (cert is not None) == ((a, b) in flagged)
            if cert is not None:
                assert (cert.datum1, cert.datum2) == (a, b)
