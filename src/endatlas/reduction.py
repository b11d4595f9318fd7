"""Finite-order reduction of torus elements and the restriction-of-scalars
(Shapiro) correspondence, both over the finite-group model.

The reduction replaces a torus element with free coordinates by a finite-order
one with the same fixers among torus-preserving automorphisms, so equivalence
questions transfer verbatim.  Both data are first conjugated by one Weyl
element making the associated parabolic standard; after that the centralizer
subsystems of the old and new elements literally coincide, so the cocycles
carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from ._linalg import zspan_basis
from .errors import InternalConsistencyError, InvalidInput
from .galois import GaloisModel
from .rootsys import RootSystem, product_root_system
from .torus import TorusElement
from .weyl import DiagramAut, WeylElement, _lex_positive, carries, free_dominance, torus_action
from .endodata import (
    EndoscopicDatum,
    _transporters,
    centralizer_roots,
    equivalent,
    equivalent_bruteforce,
    make_datum_from_family,
    raw_form,
    transport_datum,
)


# -- the reduction plan ----------------------------------------------------------


@dataclass(frozen=True)
class ReductionPlan:
    bypass: bool
    standardizer: WeylElement | None = None
    r_basis: tuple = ()        # Hermite basis of the free-exponent lattice
    sigma_p: frozenset = frozenset()
    sigma_m: frozenset = frozenset()
    delta_m_fixed: tuple = ()  # Delta^M: simple roots with trivial free part
    delta_m_moved: tuple = ()  # Delta_M: the rest
    classes: tuple = ()        # tuple of tuples of simple-root indices (1-based)
    class_reps: tuple = ()     # delta_i per class (simple-root index)
    b: int = 0
    c: int = 0
    d: int = 0
    t: TorusElement | None = None
    s_level_sets: tuple = ()   # (S^M, S^U, S^Ubar) computed from t


def _free_exponent_basis(free_parts):
    """Hermite-reduced basis of the lattice generated by the free parts."""
    vecs = [f for f in free_parts if any(f)]
    if not vecs:
        return ()
    denom = lcm(*(x.denominator for v in vecs for x in v))
    int_vecs = [tuple(int(x * denom) for x in v) for v in vecs]
    basis = zspan_basis(int_vecs)
    return tuple(tuple(Fraction(x, denom) for x in row) for row in basis)


def build_reduction_plan(rs: RootSystem, s: TorusElement) -> ReductionPlan:
    """The full plan for one torus element (already standardized) of a
    simple type; the class weights c read the marks."""
    rs._require_simple()
    # (torsion, free part) of every root, evaluated once
    value_of = {r: s.value_at(r) for r in rs.all_roots}
    r_basis = _free_exponent_basis(value_of[r][1] for r in rs.simple_roots)
    sigma_p, sigma_m = set(), set()
    for r, (_, f) in value_of.items():
        # the Hermite basis is echelon with positive pivots, so the lex sign
        # of a free part equals the lex sign of its coordinates over it
        if not any(f):
            sigma_m.add(r)
            sigma_p.add(r)
        elif _lex_positive(f):
            sigma_p.add(r)
    if not (sigma_p | {tuple(-x for x in r) for r in sigma_p - sigma_m}) == rs.all_roots:
        raise InternalConsistencyError("parabolic halves do not cover the root set")
    delta_fixed, delta_moved = [], []
    for i, r in enumerate(rs.simple_roots):
        (delta_fixed if r in sigma_m else delta_moved).append(i + 1)
    # Levi standardness: Sigma^M must be the span of Delta^M inside Sigma,
    # which is the set of roots supported on Delta^M
    off_m = [i - 1 for i in delta_moved]
    span_m = {r for r in rs.all_roots if not any(r[i] for i in off_m)}
    if span_m != sigma_m:
        raise InternalConsistencyError(
            "the trivial-free-part roots are not a standard Levi; standardize first"
        )
    # classes by equal free part, ordered by smallest member
    by_free = {}
    for i in delta_moved:
        by_free.setdefault(value_of[rs.simple_roots[i - 1]][1], []).append(i)
    classes = tuple(
        tuple(sorted(v)) for v in sorted(by_free.values(), key=lambda v: min(v))
    )
    reps = tuple(cl[0] for cl in classes)
    # minimal b: kills torsion on Sigma^M and torsion differences on equal-free roots
    b = 1
    for r in sigma_m:
        b = lcm(b, value_of[r][0].denominator)
    groups = {}
    for t, f in value_of.values():
        groups.setdefault(f, []).append(t)
    for t0, *rest in groups.values():
        for t1 in rest:
            b = lcm(b, (t1 - t0).denominator)
    c = sum(
        (k + 1) * rs.marks[i] for k, cl in enumerate(classes) for i in cl
    )
    d = 3 * c * b
    torsion = []
    class_of = {i: k for k, cl in enumerate(classes) for i in cl}
    for i in range(1, rs.rank + 1):
        t_i = value_of[rs.simple_roots[i - 1]][0]
        if i in delta_fixed:
            torsion.append(t_i)
        else:
            k = class_of[i]
            t_rep = value_of[rs.simple_roots[reps[k] - 1]][0]
            torsion.append(Fraction(k + 1, d) + t_i - t_rep)
    t_elem = TorusElement(torsion)
    if t_elem.order() % 1 != 0 or d % t_elem.order() != 0:
        raise InternalConsistencyError("reduced element order does not divide d")
    s_sets = _level_sets(rs, t_elem, c, d)
    plan = ReductionPlan(
        bypass=False,
        r_basis=r_basis,
        sigma_p=frozenset(sigma_p),
        sigma_m=frozenset(sigma_m),
        delta_m_fixed=tuple(delta_fixed),
        delta_m_moved=tuple(delta_moved),
        classes=classes,
        class_reps=reps,
        b=b,
        c=c,
        d=d,
        t=t_elem,
        s_level_sets=s_sets,
    )
    _certify_plan(rs, s, plan)
    return plan


def _level_sets(rs: RootSystem, t: TorusElement, c: int, d: int):
    s_m, s_u, s_ubar = set(), set(), set()
    for r in rs.all_roots:
        tv, f = t.value_at(r)
        if any(f):
            raise InternalConsistencyError("reduced element is not finite order")
        m = int(tv * d) if (tv * d).denominator == 1 else None
        if m is None:
            raise InternalConsistencyError("root value of order not dividing d")
        rem = m % (3 * c)
        if rem == 0:
            s_m.add(r)
        elif 1 <= rem <= c:
            s_u.add(r)
        elif 2 * c <= rem <= 3 * c - 1:
            s_ubar.add(r)
    return (frozenset(s_m), frozenset(s_u), frozenset(s_ubar))


def _certify_plan(rs: RootSystem, s: TorusElement, plan: ReductionPlan):
    s_m, s_u, s_ubar = plan.s_level_sets
    if s_m & s_u or s_m & s_ubar or s_u & s_ubar:
        raise InternalConsistencyError("the level sets of t are not disjoint")
    upper = plan.sigma_p - plan.sigma_m
    if not plan.sigma_m <= s_m:
        raise InternalConsistencyError("Sigma^M escapes its level set")
    if not upper <= s_u:
        raise InternalConsistencyError("the unipotent roots escape their level set")
    if not {tuple(-x for x in r) for r in upper} <= s_ubar:
        raise InternalConsistencyError("the opposite roots escape their level set")
    # the partition of Sigma forces the inclusions to be equalities
    if s_m != plan.sigma_m or s_u != upper:
        raise InternalConsistencyError("level sets strictly larger than the halves")


def degenerate_plan(s: TorusElement) -> ReductionPlan:
    return ReductionPlan(bypass=True, t=s)


def finite_order_reduction(d1: EndoscopicDatum, d2: EndoscopicDatum, plan=None):
    """Replace the common torus element by a finite-order one in both data.

    Returns (reduced d1, reduced d2, plan).  Finite-order input bypasses the
    construction; the general case first conjugates both data by one Weyl
    element making the free-sign parabolic standard (recorded in the plan).
    The plan depends on the common s alone: a caller that already holds the
    plan of this s may pass it, and it is not built again.  Each family is
    still checked to fix t, and the centralizers of s and t compared.
    """
    r1, r2 = raw_form(d1), raw_form(d2)
    if r1.s != r2.s:
        raise InvalidInput("reduce data with a common s; reconcile first")
    if r1.s.is_finite_order():
        return d1, d2, degenerate_plan(r1.s)
    rs = d1.rs
    if plan is None:
        w_std = free_dominance(rs, r1.s)
        s_std = torus_action(w_std, r1.s)
        plan = replace(build_reduction_plan(rs, s_std), standardizer=w_std)
    else:
        w_std = plan.standardizer
        s_std = torus_action(w_std, r1.s)
    t = plan.t
    winv = w_std.inverse()
    out = []
    for r in (r1, r2):
        # the family conjugated by w_std fixes s_std, and so must fix t
        family = [w_std * a * winv for a in r.family]
        if not all(carries(a, t, t) for a in family):
            raise InternalConsistencyError(
                "a cocycle value fixes s but not t; falsifies the reduction"
            )
        out.append(make_datum_from_family(rs, r.galois, t, family, validate=True))
    if centralizer_roots(rs, s_std) != centralizer_roots(rs, t):
        raise InternalConsistencyError(
            "the centralizer subsystems of s and t differ after standardization"
        )
    return out[0], out[1], plan


def fixers_agree(rs: RootSystem, s: TorusElement, t: TorusElement, maps) -> bool:
    """Whether each map in ``maps`` fixes s exactly when it fixes t."""
    for w in maps:
        if carries(w, s, s) != carries(w, t, t):
            return False
    return True


def reduction_preserves_equivalence(d1: EndoscopicDatum, d2: EndoscopicDatum, plan=None) -> bool:
    """Equivalence verdicts before (direct Weyl search) and after the reduction
    (``equivalent`` on the reduced data) must agree; False falsifies.  The
    reduction runs on d1 transported onto d2's s; ``plan``, when given, is
    the reduction plan of that s (as ``finite_order_reduction(d1, d2)``
    returns it for data with a common s), and is reused."""
    before = equivalent_bruteforce(d1, d2) is not None
    r1, r2 = raw_form(d1), raw_form(d2)
    w0 = next(_transporters(r1, r2), None)
    if w0 is None:
        # no Weyl transport between the torus elements: both verdicts negative
        return before is False
    red1, red2, _ = finite_order_reduction(transport_datum(r1, w0), r2, plan)
    after = equivalent(red1, red2) is not None
    return before == after


# -- restriction of scalars / Shapiro ---------------------------------------------


@dataclass(frozen=True)
class InducedModel:
    """Disjoint copies of a base system indexed by cosets, with the ambient
    group permuting the copies through right translation."""

    galois: GaloisModel        # ambient group acting on the induced system
    base_galois: GaloisModel   # the subgroup with its action on the base system
    embedding: tuple           # ambient index of each base element
    reps: tuple                # coset representatives, identity first
    rs: RootSystem             # the induced (product) system
    base_rs: RootSystem
    rho: tuple                 # coset representative of each ambient element

    @property
    def subgroup(self):
        return tuple(sorted(self.embedding))

    @property
    def degree(self) -> int:
        return len(self.reps)


def make_induced_model(
    base_galois: GaloisModel,
    ambient_names,
    ambient_table,
    embedding,
) -> InducedModel:
    """Build the induced system for a subgroup embedding Gamma_1 -> Gamma.

    ``embedding[i]`` is the ambient index of base element i.
    """
    base_rs = base_galois.rs
    names = tuple(str(x) for x in ambient_names)
    table = tuple(tuple(row) for row in ambient_table)
    n = len(names)
    emb = tuple(embedding)
    if len(emb) != len(base_galois) or len(set(emb)) != len(emb):
        raise InvalidInput("embedding must be injective on the subgroup")
    if emb[0] != 0:
        raise InvalidInput("embedding must send identity to identity")
    for a in range(len(base_galois)):
        for b in range(len(base_galois)):
            if table[emb[a]][emb[b]] != emb[base_galois.table[a][b]]:
                raise InvalidInput("embedding is not a homomorphism")
    inverse = {x: y for x in range(n) for y in range(n) if table[x][y] == 0}
    if len(inverse) != n:
        raise InvalidInput("an ambient element has no inverse")
    sub = set(emb)
    # right cosets Gamma_1 \ Gamma by least element; the first, of x = 0, is the
    # subgroup itself and holds table[0][0] = 0, so the identity leads
    cosets = []
    assigned = {}
    for x in range(n):
        if x in assigned:
            continue
        coset = sorted({table[h][x] for h in sub})
        for y in coset:
            assigned[y] = len(cosets)
        cosets.append(coset)
    reps = [min(c) for c in cosets]
    k = len(reps)
    rho = [reps[assigned[x]] for x in range(n)]
    rs = product_root_system([base_rs.type] * k)
    block = {r: i for i, r in enumerate(reps)}
    nb = base_rs.rank
    action = []
    for sigma in range(n):
        perm = [0] * (rs.rank + 1)
        for r in reps:
            target = rho[table[r][sigma]]
            g = _transfer(table, inverse.get, rho, emb, r, sigma)
            phi_g = base_galois.phi(g)
            for j in range(1, nb + 1):
                # node (target, j') receives content from block `target`;
                # source node (r', j') maps under sigma_G as derived:
                # e_{(target, j)} -> e_{(r, phi_1(g(r, sigma))(j))}
                src = block[target] * nb + j
                dst = block[r] * nb + phi_g(j)
                perm[src] = dst
        action.append(DiagramAut(tuple(perm)))
    galois = GaloisModel(names, table, action, rs)
    return InducedModel(
        galois=galois,
        base_galois=base_galois,
        embedding=emb,
        reps=tuple(reps),
        rs=rs,
        base_rs=base_rs,
        rho=tuple(rho),
    )


def _transfer(table, inv, rho, embedding, a: int, sigma: int) -> int:
    """g(a, sigma) = a sigma rho(a sigma)^{-1}, as a base-group index, where
    ``inv`` inverts ambient elements and ``rho`` picks coset representatives."""
    x = table[a][sigma]
    g = table[x][inv(rho[x])]
    if g not in embedding:
        raise InternalConsistencyError("transfer element left the subgroup")
    return embedding.index(g)


def _block_embed(model: InducedModel, block: int, base_map: WeylElement) -> list:
    """Rows of a block-diagonal piece acting on one copy."""
    nb = model.base_rs.rank
    rows = []
    for j in range(nb):
        img = [0] * model.rs.rank
        for jj, x in enumerate(base_map.images[j]):
            img[block * nb + jj] = x
        rows.append(tuple(img))
    return rows


def shapiro_induce(base_datum: EndoscopicDatum, model: InducedModel) -> EndoscopicDatum:
    """Inverse Shapiro: extend a base datum to the induced system.

    The cocycle is the coset-representative extension agreeing with the base
    cocycle at the identity coset; the torus element is the diagonal one.
    """
    if base_datum.rs is not model.base_rs:
        raise InvalidInput("base datum lives on a different root system")
    if not base_datum.galois.same_model(model.base_galois):
        raise InvalidInput("base datum lives over a different Galois model")
    k = model.degree
    base = raw_form(base_datum)
    s1 = base.s
    s_ind = TorusElement(
        tuple(s1.torsion) * k,
        tuple(s1.free) * k if s1.n_generators else None,
    )
    ambient = model.galois
    eta1 = [base.w_value(a) for a in range(len(model.base_galois))]
    family = []
    for sigma in range(len(ambient)):
        v_rows = []
        for bi, r in enumerate(model.reps):
            g = _transfer(ambient.table, ambient.inv, model.rho, model.embedding, r, sigma)
            v_rows.extend(_block_embed(model, bi, eta1[g]))
        family.append(WeylElement(tuple(v_rows)) * ambient.phi_lattice(sigma))
    return make_datum_from_family(model.rs, ambient, s_ind, family, validate=True)


def shapiro_descend(induced_datum: EndoscopicDatum, model: InducedModel) -> EndoscopicDatum:
    """Project an induced datum to the base system at the identity coset."""
    if induced_datum.rs is not model.rs:
        raise InvalidInput("datum does not live on the induced system")
    if not induced_datum.galois.same_model(model.galois):
        raise InvalidInput("datum lives over a different ambient model")
    nb = model.base_rs.rank
    raw = raw_form(induced_datum)
    s1 = TorusElement(
        raw.s.torsion[:nb],
        raw.s.free[:nb] if raw.s.n_generators else None,
    )
    fam = []
    for g in model.embedding:
        a_map = raw.family[g]
        rows = []
        for j in range(nb):
            img = a_map(model.rs.simple_roots[j])
            if any(img[nb:]):
                raise InternalConsistencyError(
                    "subgroup action does not preserve the identity block"
                )
            rows.append(img[:nb])
        fam.append(WeylElement(tuple(rows)))
    return make_datum_from_family(model.base_rs, model.base_galois, s1, fam, validate=True)


def equivalence_transfers_under_shapiro(
    x1: EndoscopicDatum, x2: EndoscopicDatum, model: InducedModel
) -> bool:
    """equivalent(x1, x2) iff equivalent(induce(x1), induce(x2)); False falsifies."""
    base_verdict = equivalent(x1, x2) is not None
    ind_verdict = equivalent(shapiro_induce(x1, model), shapiro_induce(x2, model)) is not None
    return base_verdict == ind_verdict
