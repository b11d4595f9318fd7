"""Enumeration and classification of elliptic data, with brute-force oracles.

Elliptic data are generated from pairs (Omega-valued cocycle, single orbit on
the completed diagram); the classification groups pairs under simultaneous
Omega-conjugation.  The independent inventory enumerates every finite-order
torus element within a bound together with every compatible Weyl cocycle and
keeps the elliptic ones up to equivalence; the two routes must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from ._linalg import integer_cone_order, vec_neg, zspan_basis, zspan_contains
from .errors import DEFAULT_WORK_CAP, CapExceeded, InternalConsistencyError, InvalidInput
from .galois import Cocycle, GaloisModel, enumerate_cocycles
from .rootsys import RootSystem, subdiagram_components, weyl_order
from .torus import TorusElement
from .weyl import (
    WeylElement,
    alcove_form,
    enumerate_weyl,
    kac_coordinates,
    omega_conjugating,
    omega_group,
    positive_system,
    torus_action,
)
from .endodata import (
    EndoscopicDatum,
    LanglandsData,
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


def _orbit_of(node: int, perms) -> frozenset:
    """The orbit of an affine node under the group generated by the permutations."""
    orbit = {node}
    frontier = [node]
    while frontier:
        nxt = []
        for x in frontier:
            for p in perms:
                y = p(x)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(orbit)


def _validate_pair(rs: RootSystem, galois: GaloisModel, pair: EllipticPair):
    n = len(galois)
    sp = [pair.cocycle.sigma_prime(galois, a) for a in range(n)]
    if not galois.is_homomorphism(sp):
        raise InvalidInput("pair cocycle is not a cocycle")
    if not pair.orbit:
        raise InvalidInput("orbit must be nonempty")
    if _orbit_of(min(pair.orbit), sp) != pair.orbit:
        raise InvalidInput("orbit is not a single orbit of the composite action")


def enumerate_pairs(rs: RootSystem, galois: GaloisModel):
    """All (cocycle, orbit) pairs: every cocycle, every single orbit it induces."""
    pairs = []
    for c in enumerate_cocycles(galois, omega_group(rs)):
        sp = [c.sigma_prime(galois, a) for a in range(len(galois))]
        seen = set()
        for node in rs.affine_nodes:
            if node in seen:
                continue
            orbit = _orbit_of(node, sp)
            seen |= orbit
            pairs.append(EllipticPair(cocycle=c, orbit=orbit))
    return sorted(pairs, key=EllipticPair.sort_key)


def _pair_torus(rs: RootSystem, galois: GaloisModel, pair: EllipticPair):
    """Validate a pair; return (d, s) with s of value zeta_d on the orbit, 1 off it."""
    _validate_pair(rs, galois, pair)
    d = sum(rs.marks[node] for node in pair.orbit)
    torsion = [
        Fraction(1, d) if (i + 1) in pair.orbit else Fraction(0) for i in range(rs.rank)
    ]
    return d, TorusElement(torsion)


def pair_to_datum(rs: RootSystem, galois: GaloisModel, pair: EllipticPair) -> EndoscopicDatum:
    """The elliptic datum of a pair: s has value zeta_d on the orbit, 1 off it."""
    d, s = _pair_torus(rs, galois, pair)
    if d == 1:
        # s = 1: the principal datum in disguise; the raw route norms it out
        raw = make_datum(rs, galois, s, pair.cocycle)
        return langlands_normalize(raw)[0]
    if s.order() != d:
        raise InternalConsistencyError("constructed s has the wrong order")
    n = len(galois)
    family = [pair.cocycle.sigma_prime(galois, a).lattice(rs) for a in range(n)]
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


def pair_equivalent(rs: RootSystem, galois: GaloisModel, p1: EllipticPair, p2: EllipticPair):
    """The Omega element carrying one pair to the other, or None."""
    n = len(galois)
    sp1 = [p1.cocycle.sigma_prime(galois, a) for a in range(n)]
    sp2 = [p2.cocycle.sigma_prime(galois, a) for a in range(n)]
    return next(omega_conjugating(rs, [p1.orbit], [p2.orbit], sp1, sp2), None)


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
    """Group the pairs by equivalence and attach the constructed data.

    The shape and Out are read off the representative pair: an orbit of
    weight d = 1 is the principal datum (shape Delta, no Out), and otherwise
    Out is the Omega stabilizer of the orbit and the composite action."""
    pairs = enumerate_pairs(rs, galois)
    classes: list[list[EllipticPair]] = []
    for p in pairs:
        for cl in classes:
            if pair_equivalent(rs, galois, cl[0], p) is not None:
                cl.append(p)
                break
        else:
            classes.append([p])
    entries = []
    for cl in classes:
        rep = min(cl, key=EllipticPair.sort_key)
        datum = pair_to_datum(rs, galois, rep)
        d = sum(rs.marks[node] for node in rep.orbit)
        dual_nodes = sorted(set(rs.affine_nodes) - set(rep.orbit))
        comps = tuple(
            (ct, tuple(nodes)) for ct, nodes in subdiagram_components(rs, dual_nodes)
        ) if dual_nodes else ()
        sp = [rep.cocycle.sigma_prime(galois, a) for a in range(len(galois))]
        action = tuple(
            tuple((i, sp[a](i)) for i in dual_nodes) for a in range(len(galois))
        )
        shape = "Delta" if d == 1 else "DeltaA"
        osize = None if d == 1 else sum(
            1 for _ in omega_conjugating(rs, [rep.orbit], [rep.orbit], sp, sp)
        )
        entries.append(
            ClassEntry(
                pair=rep,
                datum=datum,
                d=d,
                dual_components=comps,
                dual_action=action,
                out_size=osize,
                shape=shape,
            )
        )
    entries.sort(key=lambda e: e.pair.sort_key())
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if pair_equivalent(rs, galois, entries[i].pair, entries[j].pair) is not None:
                raise InternalConsistencyError("class representatives are equivalent")
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

    d, s = _pair_torus(rs, galois, pair)
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

    if d == 1:
        raw = make_datum(rs, galois, s, pair.cocycle)
        nd, ld = langlands_normalize(raw)
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

    # round trip through the raw normalization
    raw = make_datum(rs, galois, s, pair.cocycle)
    nd, ld = langlands_normalize(raw)
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
    w = 1
    for ct, _ in rs.components:
        w *= weyl_order(ct)
    return max(w * len(galois), order_bound**rs.rank)


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
    actions: candidates w . phi(a) over ``weyl_list`` that fix s, moved to keep
    the standard Borel, and combined by ``GaloisModel.homomorphisms``."""
    sub_pos, base = _standard_borel(rs, s)
    n = len(galois)
    cands = []
    for a in range(n):
        phi = galois.phi_lattice(a)
        ca = {}
        for w in weyl_list:
            comp = w * phi
            if torus_action(comp, s) != s:
                continue
            comp = canonicalize_action(rs, sub_pos, base, comp)
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
    cache = getattr(rs, "_inventory_cache", None)
    if cache is None:
        cache = rs._inventory_cache = {}
    key = (galois.key(), order_bound)
    if key not in cache:
        cache[key] = tuple(_build_inventory(rs, galois, order_bound, cap))
    return list(cache[key])


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
