"""Endoscopic data as (torus element, Weyl-valued cocycle) pairs.

A datum stores the composite Galois actions sigma -> sigma' = w(sigma).sigma_G
as lattice maps, canonicalized so that every value preserves a fixed Borel of
the centralizer subsystem: before normalization that Borel is the one cut out
by the standard positive roots, afterwards it is the one whose simple set sits
inside the normalized layer decomposition.  Lifts to the dual group are never
materialized; every criterion lives at the level of W and the torus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._linalg import dot, fixed_space_dimension
from .errors import InternalConsistencyError, InvalidInput, is_integer
from .galois import Cocycle, GaloisModel, Place, restrict_model
from .rootsys import RootSystem, root_sum
from .torus import TorusElement
from .weyl import (
    DiagramAut,
    WeylElement,
    _transport_in_subsystem,
    alcove_form,
    alcove_omega,
    carries,
    enumerate_affine_automorphisms,
    enumerate_weyl,
    kac_coordinates,
    omega_by_node,
    omega_group,
    permutes_roots,
    positive_system,
    torus_action,
    weyl_part_if_member,
)


# -- subsystem helpers ---------------------------------------------------------


def centralizer_roots(rs: RootSystem, s: TorusElement):
    """Roots alpha with alpha(s) = 1, the root set of the dual centralizer."""
    return frozenset(r for r in rs.all_roots if s.trivial_at(r))


def _standard_borel(rs: RootSystem, s: TorusElement):
    """The standard positive system P of the centralizer subsystem, as its sum
    rho (``root_sum``), and its simple system.

    A root r of P is simple iff <rho, r^vee> = 2, i.e. (rho, r) = (r, r) in
    ``rs.form`` (Bourbaki, Lie VI.1.10: the half-sum pairs to 1 with exactly
    the simple coroots and to the coroot height, at least 2, with the other
    positive coroots).  The components of the subsystem are orthogonal in
    the ambient form, so the test holds on products and with free parts.
    """
    sub_pos = centralizer_roots(rs, s) & rs.positives
    rho = root_sum(sub_pos, rs.rank)
    f_rho = [dot(row, rho) for row in rs.form]
    base = [r for r in sub_pos if dot(r, f_rho) == dot(r, [dot(row, r) for row in rs.form])]
    return rho, tuple(sorted(base))


def standard_bprime_base(rs: RootSystem, s: TorusElement):
    """Simple system of the positive part of the centralizer subsystem."""
    return _standard_borel(rs, s)[1]


def canonicalize_action(rs: RootSystem, rho, base, a: WeylElement) -> WeylElement:
    """The unique subsystem-Weyl translate v . a of an action ``a`` preserving
    the Borel with positive roots summing to ``rho`` and simple system ``base``."""
    if not base:
        return a
    return _transport_in_subsystem(rs, a(rho), base, rho) * a


# -- the datum -----------------------------------------------------------------


@dataclass(frozen=True)
class LanglandsData:
    """Layered root data of the normalization: d, the filtered minimal sets
    X_k, the reached shape, and the transport u."""

    d: int
    layers: tuple  # ((k, X_k), ...) over the nonempty X_k, k increasing
    shape: str  # "Delta" or "DeltaA"
    u: WeylElement

    def layer(self, k: int) -> frozenset:
        return next((x for j, x in self.layers if j == k), frozenset())


class EndoscopicDatum:
    """Immutable (s, cocycle) pair with its Borel convention made explicit."""

    __slots__ = ("rs", "galois", "s", "family", "bprime_base", "normalized", "langlands")

    def __init__(self, rs, galois, s, family, bprime_base, normalized=False,
                 langlands=None, _validate=True):
        self.rs = rs
        self.galois = galois
        self.s = s
        self.family = tuple(family)
        self.bprime_base = tuple(sorted(tuple(v) for v in bprime_base))
        self.normalized = normalized
        self.langlands = langlands
        if _validate:
            self._validate()

    def _validate(self):
        n = len(self.galois)
        if len(self.family) != n:
            raise InvalidInput("cocycle must assign a value to every group element")
        if not self.family[0].is_identity():
            raise InvalidInput("the identity must act as the identity")
        if not self.galois.is_homomorphism(self.family):
            raise InvalidInput(
                "cocycle identity fails: the composite actions are not a homomorphism"
            )
        base = set(self.bprime_base)
        for a in range(n):
            if not carries(self.family[a], self.s, self.s):
                raise InvalidInput("the composite action does not fix s")
            if weyl_part_if_member(self.rs, self.w_value(a)) is None:
                raise InvalidInput("cocycle value is not in the Weyl group")
            if any(self.family[a](b) not in base for b in self.bprime_base):
                raise InvalidInput("the composite action does not preserve the Borel")

    def w_value(self, a: int) -> WeylElement:
        """The Weyl part of the stored composite action at element a."""
        return self.family[a] * self.galois.phi_lattice(a).inverse()

    def key(self):
        return (
            self.s.key(),
            self.bprime_base,
            tuple(f.images for f in self.family),
        )

    def __eq__(self, other):
        return (
            isinstance(other, EndoscopicDatum)
            and self.rs is other.rs
            and self.galois.same_model(other.galois)
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def node_action(self, a: int) -> DiagramAut:
        """The composite action as a permutation of affine nodes (normalized data)."""
        if not self.normalized:
            raise InvalidInput("node actions exist only after normalization")
        perm = []
        for node in self.rs.affine_nodes:
            img = self.family[a](self.rs.node_root(node))
            target = self.rs.node_of_root(img)
            if target is None:
                raise InternalConsistencyError("normalized action does not permute nodes")
            perm.append(target)
        return DiagramAut(tuple(perm))

    def __repr__(self):
        tag = "normalized" if self.normalized else "raw"
        return f"EndoscopicDatum({self.rs!r}, s={self.s!r}, {tag})"


def make_datum(rs: RootSystem, galois: GaloisModel, s: TorusElement, cocycle) -> EndoscopicDatum:
    """Build a datum from raw cocycle values, canonicalizing the Borel choice.

    ``cocycle`` maps element names (or indices) to Weyl lattice maps, images
    lists, affine node permutations, or is a Cocycle with Omega values.
    """
    if s.rank != rs.rank:
        raise InvalidInput("torus element rank does not match the root system")
    values = _cocycle_values(rs, galois, cocycle)
    family = []
    for a in range(len(galois)):
        composite = values[a] * galois.phi_lattice(a)
        fixes = carries(composite, s, s)
        if not (fixes and permutes_roots(rs, composite)):
            # a map that permutes the roots is unimodular; a singular or
            # non-unimodular value is refused as such by its inverse
            composite.inverse()
            raise InvalidInput(
                "cocycle value does not " + ("permute the roots" if fixes else "fix s")
            )
        family.append(composite)
    return make_datum_from_family(rs, galois, s, family, validate=True)


def make_datum_from_family(rs, galois, s, family, validate=False) -> EndoscopicDatum:
    """Rebuild a raw-convention datum from composite actions (assumed valid)."""
    rho, base = _standard_borel(rs, s)
    out = [canonicalize_action(rs, rho, base, a) for a in family]
    return EndoscopicDatum(rs, galois, s, out, base, normalized=False, _validate=validate)


def principal_datum(rs: RootSystem, galois: GaloisModel) -> EndoscopicDatum:
    """The datum of the group itself: s = 1, trivial cocycle."""
    s = TorusElement.identity(rs.rank)
    return make_datum(rs, galois, s, {name: WeylElement.identity(rs.rank) for name in galois.names})


def _cocycle_values(rs, galois, cocycle):
    if isinstance(cocycle, Cocycle):
        return [cocycle.value(a).lattice(rs) for a in range(len(galois))]
    if isinstance(cocycle, dict):
        items = {}
        for k, v in cocycle.items():
            if isinstance(k, str):
                if k not in galois.names:
                    raise InvalidInput(f"cocycle names an unknown element {k!r}")
                idx = galois.names.index(k)
            else:
                idx = int(k)
                if not 0 <= idx < len(galois):
                    raise InvalidInput(f"cocycle key {k!r} is not an element index")
            items[idx] = v
    else:
        items = dict(enumerate(cocycle))
        if len(items) > len(galois):
            raise InvalidInput("cocycle lists more values than the group has elements")
    return [_cocycle_value(rs, items.get(a)) for a in range(len(galois))]


def _cocycle_value(rs, v) -> WeylElement:
    """One cocycle value as a lattice map.  Accepted: None (the identity), a
    WeylElement or ``rank`` rows of ``rank`` integers (images of the simple
    roots), a DiagramAut or a permutation of the affine nodes 0..rank."""
    if v is None:
        return WeylElement.identity(rs.rank)
    if isinstance(v, WeylElement):
        v = v.images
    elif isinstance(v, DiagramAut):
        v = v.perm
    if not isinstance(v, (list, tuple)) or not v:
        raise InvalidInput(f"cannot interpret cocycle value {v!r}")
    if all(is_integer(x) for x in v):
        if sorted(v) != list(range(rs.rank + 1)):
            raise InvalidInput(f"node permutation {list(v)} is not a permutation of 0..{rs.rank}")
        aut = DiagramAut(tuple(v))
        if not (aut in enumerate_affine_automorphisms(rs) if rs.is_simple else aut.fixes_node_zero()):
            raise InvalidInput(f"node permutation {list(v)} is not an automorphism of the diagram")
        return aut.lattice(rs)
    if len(v) != rs.rank or not all(
        isinstance(row, (list, tuple)) and len(row) == rs.rank
        and all(is_integer(x) for x in row)
        for row in v
    ):
        raise InvalidInput(f"cocycle value {v!r} is not {rs.rank} rows of {rs.rank} integers")
    return WeylElement(v)


def raw_form(datum: EndoscopicDatum) -> EndoscopicDatum:
    """The same datum re-expressed in the raw (standard-Borel) convention."""
    if not datum.normalized:
        return datum
    return make_datum_from_family(datum.rs, datum.galois, datum.s, datum.family)


def transport_datum(datum: EndoscopicDatum, w: WeylElement, image=None) -> EndoscopicDatum:
    """Conjugate the whole datum by w, in the raw convention.  ``image`` is
    w.s when the caller has already shown it (``carries``); else it is computed."""
    s2 = torus_action(w, datum.s) if image is None else image
    winv = w.inverse()
    fam = [w * a * winv for a in datum.family]
    return make_datum_from_family(datum.rs, datum.galois, s2, fam)


# -- Langlands layers and normalization ------------------------------------------


def langlands_normalize(datum: EndoscopicDatum):
    """Conjugate the datum so the layered root set equals Delta or Delta_a.

    Returns (normalized datum, LanglandsData), read off the Kac coordinates
    k_0..k_n (units of 1/d, d = ord(s)) of the alcove form a = u.s.  u is a
    function of s alone, so data with the same s share u and their layers.

    Why this is the layered construction: every root is a nonnegative
    combination of affine nodes, so its value on a is exactly sum c_i k_i / d.
    B_a, the nodes with k_i = 0, is a base of the centralizer roots, and u is
    corrected inside them so that u(B') = B_a.  A root of level k that
    involves two positive-level nodes, or one node twice, lies in the Z-span
    of the lower levels; any other root of level k lies above a single node
    of level k in the B_a cone order.  A node lies in the span of all the
    others only when it alone holds the top level and has mark 1: that is
    shape Delta, where Omega moves the node to 0 and it is dropped.
    """
    rs = datum.rs
    rs._require_simple()
    if not datum.s.is_finite_order():
        raise InvalidInput(
            "s has infinite order; apply the finite-order reduction first"
        )
    if datum.normalized:
        return datum, replace(datum.langlands, u=WeylElement.identity(rs.rank))
    alc, u = alcove_form(rs, datum.s)
    d, kac = kac_coordinates(rs, alc)
    top = max(kac)
    j = kac.index(top)
    shape = "Delta" if kac.count(top) == 1 and rs.marks[j] == 1 else "DeltaA"
    if shape == "Delta" and j:
        om = omega_by_node(rs)[j]
        u = om.weyl.inverse() * u
        kac = tuple(kac[i] for i in om.aut.perm)
    by_level = {}
    # shape Delta drops node 0, which alone holds the top level
    for i in rs.affine_nodes[1:] if shape == "Delta" else rs.affine_nodes:
        by_level.setdefault(kac[i], set()).add(rs.node_root(i))
    b_a = frozenset(by_level.get(0, ()))
    s2 = torus_action(u, datum.s)
    moved = {u(b) for b in datum.bprime_base}
    if moved != b_a:
        # the descent runs in the Weyl group of the centralizer, so it fixes s2
        phi_a = centralizer_roots(rs, s2)
        rho, target_rho = (root_sum(positive_system(rs, phi_a, b), rs.rank) for b in (moved, b_a))
        u = _transport_in_subsystem(rs, rho, b_a, target_rho) * u
    layers = tuple((k, frozenset(x)) for k, x in sorted(by_level.items()))
    uinv = u.inverse()
    fam2 = [u * a * uinv for a in datum.family]
    ld = LanglandsData(d=d, layers=layers, shape=shape, u=u)
    out = EndoscopicDatum(
        rs, datum.galois, s2, fam2, b_a, normalized=True, langlands=ld
    )
    if shape == "Delta":
        for a in range(len(datum.galois)):
            if out.w_value(a) != WeylElement.identity(rs.rank):
                raise InternalConsistencyError(
                    "shape Delta forces a trivial cocycle, got a nontrivial value"
                )
    else:
        omega_perms = {om.aut.perm for om in omega_group(rs)}
        for a in range(len(datum.galois)):
            if out.node_action(a).compose(datum.galois.phi(a).inverse()).perm not in omega_perms:
                raise InternalConsistencyError(
                    "normalized cocycle value landed outside Omega"
                )
    return out, ld


# -- equivalence ------------------------------------------------------------------


def _transporters(r1: EndoscopicDatum, r2: EndoscopicDatum):
    """The elements u2^-1.om.u1, in order, for the alcove forms a_i = u_i.s_i
    of two raw data and the om in Omega_J (``alcove_omega``) with om.a1 = a2.
    Every w in W with w.s1 = s2 is one of them times an element of W(Phi_s2),
    since Stab_W(a2) = W(Phi_a2) x| {om in Omega_J : om.a2 = a2}."""
    rs = r1.rs
    a1, u1 = alcove_form(rs, r1.s)
    a2, u2 = (a1, u1) if r2.s == r1.s else alcove_form(rs, r2.s)
    u2inv = u2.inverse()
    for om in alcove_omega(rs, a1):
        if carries(om, a1, a2):
            yield u2inv * om * u1


def witness_transports(d1: EndoscopicDatum, d2: EndoscopicDatum, w: WeylElement) -> bool:
    """Soundness of a witness: transporting d1 by w reproduces d2 exactly."""
    r1, r2 = raw_form(d1), raw_form(d2)
    return transport_datum(r1, w) == r2


def equivalent(d1: EndoscopicDatum, d2: EndoscopicDatum):
    """Equivalence test; returns a witness Weyl element or None.

    The first of ``_transporters`` that carries the raw form of d1 onto that
    of d2, for simple and product systems, with or without free parts.  The
    candidates are complete: W(Phi_s) fixes every raw datum on s, because
    the Borel-canonical member of a W(Phi_s)-coset is unique.  So a witness
    passes ``witness_transports`` by construction.
    """
    if d1.rs is not d2.rs:
        raise InvalidInput("data live on different root systems")
    if not d1.galois.same_model(d2.galois):
        raise InvalidInput("data live over different Galois models")
    r1, r2 = raw_form(d1), raw_form(d2)
    # every candidate carries s1 onto s2, so its image datum lives on s2
    return next((w for w in _transporters(r1, r2) if transport_datum(r1, w, r2.s) == r2), None)


_BRUTEFORCE_WEYL_CAP = 50000


def equivalent_bruteforce(d1: EndoscopicDatum, d2: EndoscopicDatum):
    """Independent oracle: search all of W, up to ``_BRUTEFORCE_WEYL_CAP``
    elements, for a transporting element."""
    if d1.rs is not d2.rs:
        raise InvalidInput("data live on different root systems")
    if not d1.galois.same_model(d2.galois):
        raise InvalidInput("data live over different Galois models")
    r1, r2 = raw_form(d1), raw_form(d2)
    for w in enumerate_weyl(d1.rs, cap=_BRUTEFORCE_WEYL_CAP):
        if carries(w, r1.s, r2.s) and transport_datum(r1, w, r2.s) == r2:
            return w
    return None


# -- ellipticity, localization ------------------------------------------------


def _orbits(perms, items):
    """The orbits on ``items`` of the group generated by the permutations
    ``perms`` (callables), as frozensets in the order of their first member."""
    orbits, seen = [], set()
    for x in items:
        if x in seen:
            continue
        orbit, stack = {x}, [x]
        while stack:
            y = stack.pop()
            for p in perms:
                z = p(y)
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def is_elliptic(datum: EndoscopicDatum) -> bool:
    """Ellipticity, Z(H)^{Gamma,0} in Z(G), on the adjoint dual torus:
    dim X*(T)_Q^Gamma equals the number of Gamma-orbits on the base of Phi_s.

    The base is the stored ``bprime_base``, which every composite action
    permutes in either Borel convention, so the test needs no normalization
    and holds for simple and product systems alike.  A free part of s is a
    fixed direction off the span of the base, so data with free parts are
    never elliptic.
    """
    base = datum.bprime_base
    if any({a(b) for b in base} != set(base) for a in datum.family):
        raise InternalConsistencyError("the action does not permute the base")
    dim_fixed = fixed_space_dimension([a.images for a in datum.family], datum.rs.rank)
    return dim_fixed == len(_orbits(datum.family, base))


def localize(datum: EndoscopicDatum, place: Place) -> EndoscopicDatum:
    """Restriction to the decomposition subgroup of a place; s is unchanged."""
    if place.model_key != datum.galois.key():
        raise InvalidInput("place belongs to a different Galois model")
    sub_model, elems = restrict_model(datum.galois, place.subgroup)
    fam = [datum.family[e] for e in elems]
    return EndoscopicDatum(
        datum.rs,
        sub_model,
        datum.s,
        fam,
        datum.bprime_base,
        normalized=datum.normalized,
        langlands=datum.langlands,
    )
