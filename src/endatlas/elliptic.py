"""Enumeration and classification of elliptic data, with brute-force oracles.

Elliptic data are generated from pairs (Omega-valued cocycle, single orbit on
the completed diagram).  Omega acts on the pairs by simultaneous conjugation,
om . (c, O) = (om sigma' om^{-1}, om(O)) on the composite actions sigma', and
the classes are the orbits of that action; Out of a class is the stabilizer
of its representative.  The independent inventory enumerates every
finite-order torus element within a bound together with every compatible Weyl
cocycle and keeps the elliptic ones up to equivalence; the two routes must
agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from ._linalg import integer_cone_order, vec_neg, zspan_basis, zspan_contains
from .errors import DEFAULT_WORK_CAP, CapExceeded, InternalConsistencyError, InvalidInput
from .galois import Cocycle, GaloisModel, enumerate_cocycles
from .rootsys import RootSystem, subdiagram_components, weyl_group_order
from .torus import TorusElement
from .weyl import (
    WeylElement,
    alcove_form,
    carries,
    enumerate_weyl,
    kac_coordinates,
    omega_group,
    positive_system,
    torus_action,
)
from .endodata import (
    EndoscopicDatum,
    LanglandsData,
    _orbits,
    _standard_borel,
    canonicalize_action,
    centralizer_roots,
    equivalent,
    is_elliptic,
    langlands_normalize,
    make_datum,
    standard_bprime_base,
)


@dataclass(frozen=True)
class EllipticPair:
    """An Omega-valued cocycle together with a single orbit on the affine nodes."""

    cocycle: Cocycle
    orbit: frozenset

    def sort_key(self):
        return (self.cocycle.key(), tuple(sorted(self.orbit)))


def _pairs_with_actions(rs: RootSystem, galois: GaloisModel):
    """Every (pair, sigma') in pair order: sigma' is the tuple of composite
    actions of the pair's cocycle, built once per cocycle and shared by its
    pairs.  The search runs once per model and root system."""

    def build():
        out = []
        for c in enumerate_cocycles(galois, omega_group(rs)):
            sp = tuple(c.sigma_prime(galois, a) for a in range(len(galois)))
            out.extend((EllipticPair(cocycle=c, orbit=o), sp) for o in _orbits(sp, rs.affine_nodes))
        return tuple(sorted(out, key=lambda x: x[0].sort_key()))

    return rs.memo("pairs", galois.key(), build)


def _pair_actions(rs: RootSystem, galois: GaloisModel, pair: EllipticPair):
    """The composite actions sigma' of the pair's cocycle, read from the
    enumeration; a pair it does not list is an input error."""
    sp, orbits = None, []
    for p, actions in _pairs_with_actions(rs, galois):
        if p.cocycle == pair.cocycle:
            sp = actions
            orbits.append(p.orbit)
    if sp is None:
        raise InvalidInput("pair cocycle is not a cocycle of the model with values in Omega")
    if pair.orbit not in orbits:
        raise InvalidInput("orbit is not a single orbit of the composite action")
    return sp


def enumerate_pairs(rs: RootSystem, galois: GaloisModel):
    """All (cocycle, orbit) pairs: every cocycle, every single orbit it induces."""
    return [pair for pair, _ in _pairs_with_actions(rs, galois)]


def _orbit_torus(rs: RootSystem, pair: EllipticPair):
    """(d, s) with s of value zeta_d on the orbit, 1 off it.  The torsion
    values 1/d and 0 are already reduced mod 1; at d = 1, s = 1."""
    d = sum(rs.marks[node] for node in pair.orbit)
    zeta = Fraction(1, d) if d > 1 else Fraction(0)
    torsion = tuple(zeta if (i + 1) in pair.orbit else Fraction(0) for i in range(rs.rank))
    return d, TorusElement._reduced(torsion, ((),) * rs.rank)


def pair_to_datum(rs: RootSystem, galois: GaloisModel, pair: EllipticPair) -> EndoscopicDatum:
    """The elliptic datum of a pair: s has value zeta_d on the orbit, 1 off it.

    The composite actions sigma' are read from the enumeration, so a forged
    pair is an ``InvalidInput``.  The constructed datum is checked."""
    actions = _pair_actions(rs, galois, pair)
    d, s = _orbit_torus(rs, pair)
    n = len(galois)
    if d == 1:
        # s = 1: the principal datum, Delta at level 0 and the diagram action
        delta = rs.simple_roots
        ld = LanglandsData(1, ((0, frozenset(delta)),), "Delta", WeylElement.identity(rs.rank))
        family = [galois.phi_lattice(a) for a in range(n)]
        return EndoscopicDatum(rs, galois, s, family, delta, normalized=True, langlands=ld)
    if s.order() != d:
        raise InternalConsistencyError("constructed s has the wrong order")
    family = [a.lattice(rs) for a in actions]
    base = tuple(sorted(rs.node_root(i) for i in rs.affine_nodes if i not in pair.orbit))
    for node in rs.affine_nodes:
        t, _ = s.value_at(rs.node_root(node))
        want = Fraction(1, d) if node in pair.orbit else Fraction(0)
        if t != want:
            raise InternalConsistencyError("s does not extend correctly to the diagram")
    layers = ((0, frozenset(base)), (1, frozenset(rs.node_root(i) for i in pair.orbit)))
    ld = LanglandsData(d, layers if base else layers[1:], "DeltaA", WeylElement.identity(rs.rank))
    return EndoscopicDatum(
        rs, galois, s, family, base, normalized=True, langlands=ld
    )


@dataclass(frozen=True)
class ClassEntry:
    pair: EllipticPair
    datum: EndoscopicDatum
    d: int
    dual_components: tuple  # ((CartanType, node tuple), ...)
    dual_action: tuple  # per element, tuple of (node, image) pairs on the dual nodes
    out_size: int | None
    shape: str


@dataclass(frozen=True)
class ClassificationReport:
    rs: RootSystem
    galois: GaloisModel
    classes: tuple

    @property
    def class_count(self) -> int:
        return len(self.classes)


def classify_elliptic(rs: RootSystem, galois: GaloisModel) -> ClassificationReport:
    """The classes are the Omega-orbits of the pairs, with the constructed data.

    Each Omega element gives one row: the index of the image of every pair,
    om . (c, O) = (om sigma' om^{-1}, om(O)).  The conjugate om sigma' om^{-1}
    is computed once per cocycle and shared by its pairs.  An image outside
    the pairs, or a row that is not a permutation, means the enumeration is
    not Omega-stable.  The pairs are sorted, so each orbit's first member
    is its least pair, the representative.  The shape and Out are read off
    it: an orbit of weight d = 1 is the principal datum (shape Delta, no Out),
    and otherwise Out is its stabilizer, the rows that fix it.  Each
    representative's datum is built by ``pair_to_datum``, which reads the
    composite actions of the enumeration, and checked as an ``EndoscopicDatum``."""
    pairs, sps = zip(*_pairs_with_actions(rs, galois))
    n = len(galois)
    keys = [tuple(a.perm for a in sp) for sp in sps]
    actions = dict(zip(keys, sps))
    index = {(key, p.orbit): i for i, (key, p) in enumerate(zip(keys, pairs))}
    rows = []
    for om in omega_group(rs):
        inv = om.aut.inverse()
        conj = {key: tuple((om.aut * a * inv).perm for a in sp) for key, sp in actions.items()}
        perm = om.aut.perm
        row = [
            index.get((conj[key], frozenset(perm[i] for i in p.orbit)))
            for key, p in zip(keys, pairs)
        ]
        if None in row:
            raise InternalConsistencyError("an Omega image of a pair is not enumerated")
        if len(set(row)) != len(row):
            raise InternalConsistencyError("an Omega element does not permute the pairs")
        rows.append(row)
    entries = []
    for cl in _orbits([row.__getitem__ for row in rows], range(len(pairs))):
        i = min(cl)
        rep, sp = pairs[i], sps[i]
        d = sum(rs.marks[node] for node in rep.orbit)
        dual_nodes = sorted(set(rs.affine_nodes) - set(rep.orbit))
        comps = tuple(
            (ct, tuple(nodes)) for ct, nodes in subdiagram_components(rs, dual_nodes)
        ) if dual_nodes else ()
        action = tuple(tuple((j, sp[a](j)) for j in dual_nodes) for a in range(n))
        entries.append(
            ClassEntry(
                pair=rep,
                datum=pair_to_datum(rs, galois, rep),
                d=d,
                dual_components=comps,
                dual_action=action,
                out_size=None if d == 1 else sum(1 for row in rows if row[i] == i),
                shape="Delta" if d == 1 else "DeltaA",
            )
        )
    return ClassificationReport(rs=rs, galois=galois, classes=tuple(entries))


# -- structural verification -----------------------------------------------------


@dataclass
class SigmaStructureReport:
    ok: bool
    violations: list = field(default_factory=list)


def verify_sigma_structure(rs: RootSystem, galois: GaloisModel, pair: EllipticPair) -> SigmaStructureReport:
    """Check the root-set identities and the layer round trip for one pair."""
    rep = SigmaStructureReport(ok=True)

    def fail(msg):
        rep.ok = False
        rep.violations.append(msg)

    _pair_actions(rs, galois, pair)
    d, s = _orbit_torus(rs, pair)
    dual_vecs = [rs.node_root(i) for i in rs.affine_nodes if i not in pair.orbit]

    # the centralizer root set is exactly the integer span of the dual nodes
    sigma_gp = centralizer_roots(rs, s)
    basis = zspan_basis(dual_vecs)
    sigma0 = frozenset(r for r in rs.all_roots if basis and zspan_contains(basis, r))
    if sigma_gp != sigma0:
        fail("centralizer roots differ from the dual-node span")
    plus = positive_system(rs, sigma0, dual_vecs)
    if plus is None:
        fail("a centralizer root leaves the dual-node span or has mixed signs")
    elif plus | {vec_neg(r) for r in plus} != sigma0:
        fail("the centralizer roots do not split into opposite halves")

    # the round trip through the raw normalization
    ld = langlands_normalize(make_datum(rs, galois, s, pair.cocycle))[1]
    if d == 1:
        if ld.shape != "Delta" or ld.d != 1:
            fail("a weight-one orbit did not normalize to the principal shape")
        return rep

    # minimality: the orbit is exactly the minimal part of {alpha(s) = zeta_d}
    frak_s = [
        r
        for r in rs.all_roots
        if s.value_at(r) == (Fraction(1, d), ())
    ]

    leq = integer_cone_order(dual_vecs, rs.rank)
    minimal = {
        r for r in frak_s if not any(q != r and leq(q, r) for q in frak_s)
    }
    orbit_vecs = {rs.node_root(i) for i in pair.orbit}
    if minimal != orbit_vecs:
        fail("the orbit is not the minimal slice of the zeta_d level set")

    if ld.shape != "DeltaA":
        fail("constructed datum did not normalize to the completed diagram")
    if ld.d != d:
        fail(f"recovered order {ld.d} differs from the pair order {d}")
    nonempty = [k for k, _ in ld.layers if k]
    if nonempty != [1]:
        fail(f"nonempty layers at k = {nonempty}, expected exactly k = 1")
    elif ld.layer(1) != orbit_vecs:
        fail("the k = 1 layer does not recover the orbit")
    return rep


# -- brute-force inventory ---------------------------------------------------------


def _work_estimate(rs: RootSystem, galois: GaloisModel, order_bound: int) -> int:
    return max(weyl_group_order(rs) * len(galois), order_bound**rs.rank)


def _canonical_s_reps(rs: RootSystem, order_bound: int):
    """The first grid point of each W-orbit on the bounded torsion grid.  The
    orbit key is the least Omega-permutation of the Kac coordinates of the
    alcove form."""
    perms = [om.aut.perm for om in omega_group(rs)]
    seen = set()
    reps = []
    for coords in product(range(order_bound), repeat=rs.rank):
        s = TorusElement([Fraction(c, order_bound) for c in coords])
        kac = kac_coordinates(rs, alcove_form(rs, s)[0])[1]
        key = min(tuple(kac[i] for i in p) for p in perms)
        if key not in seen:
            seen.add(key)
            reps.append(s)
    return reps


def _families_fixing(rs: RootSystem, galois: GaloisModel, s: TorusElement, weyl_list):
    """All Borel-normalized cocycle families fixing s, each a list of composite
    actions: candidates w . phi(a) over ``weyl_list`` that fix s (w carries
    phi(a).s to s), moved to keep the standard Borel, and combined by
    ``GaloisModel.homomorphisms``."""
    rho, base = _standard_borel(rs, s)
    n = len(galois)
    cands = []
    for a in range(n):
        phi = galois.phi_lattice(a)
        phi_s = torus_action(phi, s)
        ca = {}
        for w in weyl_list:
            if not carries(w, phi_s, s):
                continue
            comp = canonicalize_action(rs, rho, base, w * phi)
            ca[comp.images] = comp
        if not ca:
            return []
        cands.append(sorted(ca.values(), key=lambda m: m.images))
    return list(galois.homomorphisms(cands, WeylElement.identity(rs.rank)))


def brute_force_inventory(
    rs: RootSystem,
    galois: GaloisModel,
    order_bound: int,
    cap: int = DEFAULT_WORK_CAP,
):
    """All elliptic data with bounded finite order, up to equivalence.

    Ground truth for the classification: enumerates every torsion element on
    the grid, every compatible Borel-normalized Weyl cocycle over the diagram
    action, keeps the elliptic data, and deduplicates with ``equivalent``.
    The cost cap is checked on every call; the result is built once per
    (model, bound) and kept on the root system.
    """
    if order_bound < 1:
        raise InvalidInput(f"order bound {order_bound} is not a positive integer")
    if cap < 1:
        raise InvalidInput(f"cost cap {cap} is not a positive integer")
    cost = _work_estimate(rs, galois, order_bound)
    if cost > cap:
        raise CapExceeded(
            f"inventory cost estimate {cost} exceeds the cap {cap}; "
            f"raise the cap to force the attempt"
        )
    key = (galois.key(), order_bound)
    return list(rs.memo(
        "inventory", key, lambda: tuple(_build_inventory(rs, galois, order_bound, cap))
    ))


def _build_inventory(rs: RootSystem, galois: GaloisModel, order_bound: int, cap: int):
    W = enumerate_weyl(rs, cap=cap)
    found: list[EndoscopicDatum] = []
    for s in _canonical_s_reps(rs, order_bound):
        families = _families_fixing(rs, galois, s, W)
        if not families:
            continue
        base = standard_bprime_base(rs, s)
        for family in families:
            datum = EndoscopicDatum(
                rs, galois, s, family, base, normalized=False, _validate=False
            )
            if is_elliptic(datum) and not any(
                other.s == datum.s and equivalent(other, datum) is not None
                for other in found
            ):
                found.append(datum)
    # distinct canonical s cannot collide, but certify anyway at desk scale
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            if found[i].s != found[j].s and equivalent(found[i], found[j]) is not None:
                raise InternalConsistencyError(
                    "two inventory entries with distinct canonical s are equivalent"
                )
    return sorted(found, key=lambda d: d.key())


def match_classification(report: ClassificationReport, inventory) -> bool:
    """Bijective matching between class representatives and inventory entries."""
    if len(report.classes) != len(inventory):
        return False
    unmatched = list(inventory)
    for entry in report.classes:
        hit = next(
            (x for x in unmatched if equivalent(entry.datum, x) is not None), None
        )
        if hit is None:
            return False
        unmatched.remove(hit)
    return not unmatched
