"""Weyl group elements as lattice maps, base transport, and the group Omega.

A lattice map is stored by the images of the simple roots: a tuple of root
vectors, row i being the image of alpha_{i+1}.  Equality of maps is equality
of these tuples, which gives a canonical, hashable normal form.

A positive system P travels as one vector, rho_P = sum(P) (Bourbaki, Lie
VI.1): every chamber descent reflects rho_P alone, in the integer invariant
form ``rs.form``, and never maps a root set.  Omega has one construction,
``alcove_omega``; ``omega_group`` reads the node permutations off it.

Work that depends on the root system alone is kept on it, built once
(``RootSystem.memo``): the simple reflections, W itself, Omega, the diagram
automorphisms, the alcove walls and Omega_J per J, the lattice map of each
node permutation (``DiagramAut.lattice``, whose inverse then persists with
it), and the verdict of ``weyl_part_if_member`` per map.

``torus_action`` computes w.s, inverting w once.  Every test of w.s = t goes
through ``carries`` instead, which reads the images of w directly and
compares integer numerators, so no comparison ever inverts a Weyl element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._linalg import dot, integer_gauss_jordan, span_functionals, vec_neg
from .errors import CapExceeded, InternalConsistencyError, InvalidInput
from .rootsys import RootSystem, diagram_isomorphisms, root_sum, weyl_group_order
from .torus import TorusElement


class WeylElement:
    """A lattice automorphism given by the images of the simple roots."""

    __slots__ = ("images", "_inv")

    def __init__(self, images):
        self.images = tuple(tuple(v) for v in images)
        self._inv = None

    @classmethod
    def identity(cls, rank: int) -> "WeylElement":
        return cls(tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)))

    def __call__(self, vec):
        out = [0] * len(self.images[0])
        for c, row in zip(vec, self.images):
            if c:
                for i, x in enumerate(row):
                    out[i] += c * x
        return tuple(out)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self * other)(v) = self(other(v))
        return WeylElement(tuple(self(row) for row in other.images))

    def inverse(self) -> "WeylElement":
        if self._inv is None:
            # fraction-free Gauss-Jordan on [A | I] ends at [d.I | d.A^-1]
            n = len(self.images)
            aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.images)]
            d, pivots, rows = integer_gauss_jordan(aug, n)
            if len(pivots) < n:
                raise InvalidInput("lattice map is singular")
            if d not in (1, -1):
                raise InvalidInput("lattice map is not unimodular")
            self._inv = WeylElement(tuple(tuple(d * x for x in row[n:]) for row in rows))
            self._inv._inv = self
        return self._inv

    def is_identity(self) -> bool:
        n = len(self.images)
        return all(self.images[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"WeylElement({self.images})"


@dataclass(frozen=True)
class DiagramAut:
    """Automorphism of the completed diagram as a permutation of affine nodes."""

    perm: tuple  # perm[i] = image of node i, nodes 0..rank

    def __call__(self, node: int) -> int:
        return self.perm[node]

    @classmethod
    def identity(cls, rank: int) -> "DiagramAut":
        return cls(tuple(range(rank + 1)))

    def compose(self, other: "DiagramAut") -> "DiagramAut":
        return DiagramAut(tuple(self.perm[other.perm[i]] for i in range(len(self.perm))))

    __mul__ = compose

    def inverse(self) -> "DiagramAut":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return DiagramAut(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.perm))

    def fixes_node_zero(self) -> bool:
        return self.perm[0] == 0

    def lattice(self, rs: RootSystem) -> WeylElement:
        """The induced lattice map (consistent on node 0 via the marks relation),
        built and checked once per permutation and root system, so its inverse
        is computed once too."""

        def build():
            if not rs.is_simple:
                # product systems have no affine node; the perm fixes slot 0
                return WeylElement(tuple(rs.simple_roots[self.perm[i + 1] - 1] for i in range(rs.rank)))
            out = WeylElement(tuple(rs.node_root(self.perm[i + 1]) for i in range(rs.rank)))
            if out(rs.lowest_root) != rs.node_root(self.perm[0]):
                raise InternalConsistencyError("node permutation breaks the marks relation")
            return out

        return rs.memo("node_lattices", self.perm, build)


@dataclass(frozen=True)
class OmegaElement:
    """A rotation of the completed diagram realized inside the Weyl group."""

    aut: DiagramAut
    weyl: WeylElement

    def __call__(self, node: int) -> int:
        return self.aut(node)


def simple_reflections(rs: RootSystem):
    """The simple reflections s_1..s_n as lattice maps."""
    return rs.memo("simple_reflections", None, lambda: tuple(
        WeylElement(tuple(rs.reflect(root, a) for a in rs.simple_roots)) for root in rs.simple_roots
    ))


# -- bases and chamber descent ------------------------------------------------


def positive_system(rs: RootSystem, roots, base):
    """The roots of ``roots`` that are nonnegative rational combinations of
    ``base``, or None when ``base`` is not a base of ``roots``: dependent
    vectors, a root outside their span, or a root with mixed signs.

    One elimination per base (``span_functionals``): a root r lies in the
    span iff Z.r = 0, and its coordinates have the signs of sign(d).P.r.
    """
    fn = span_functionals(list(base), rs.rank)
    if fn is None:
        return None
    d, coords, span = fn
    if d < 0:
        coords = [[-x for x in p] for p in coords]
    pos = set()
    for r in roots:
        if any(dot(z, r) for z in span):
            return None
        c = [dot(p, r) for p in coords]
        if all(x >= 0 for x in c):
            pos.add(r)
        elif not all(x <= 0 for x in c):
            return None
    return frozenset(pos)


def is_base(rs: RootSystem, vectors) -> bool:
    """Whether the vectors form a base of the whole root system."""
    return positive_system(rs, rs.all_roots, vectors) is not None


def _transport_in_subsystem(rs: RootSystem, rho, target_base, target_rho) -> WeylElement:
    """The element v of a subsystem's Weyl group with v(P) = P', for two
    positive systems P, P' of one subsystem passed as their sums rho and
    ``target_rho`` (``rootsys.root_sum``); ``target_base`` is the base of P'.

    Chamber descent on one vector: a root t lies in P iff (rho, t) > 0, so
    each step reflects rho in the first target simple root t with
    (rho, t) < 0, the form being ``rs.form``.  The descent ends within |P|
    steps at a rho in the target chamber, which is ``target_rho`` exactly
    when P was a positive system of the subsystem.
    """
    walls = [(t, tuple(dot(row, t) for row in rs.form)) for t in sorted(target_base)]
    # rho, then the rows of v, reflected in place
    vecs = [list(rho)] + [list(row) for row in WeylElement.identity(rs.rank).images]
    for _ in range(len(rs.positives) + 1):
        t, ft = next(((t, ft) for t, ft in walls if dot(vecs[0], ft) < 0), (None, None))
        if t is None:
            if tuple(vecs[0]) != target_rho:
                raise InternalConsistencyError("descent stalled on a non-positive system")
            return WeylElement(vecs[1:])
        # s_t(r) = r - <r, t^vee> t, where <r, t^vee> = 2(r, t)/(t, t)
        tt = dot(t, ft)
        for r in vecs:
            c = 2 * dot(r, ft) // tt
            if c:
                r[:] = [x - c * y for x, y in zip(r, t)]
    raise InternalConsistencyError("descent failed to terminate")


def _lex_positive(vec) -> bool:
    """Whether the first nonzero entry is positive (the zero vector counts)."""
    return next((x > 0 for x in vec if x), True)


def free_dominance(rs: RootSystem, s: TorusElement) -> WeylElement:
    """A w in W after which every positive root has a lex-nonnegative free
    part on w.s: the chamber descent from the positive system cut out by the
    lex signs of the free parts (standard positivity breaking the ties) to
    the standard one.  The roots of zero free part are then a standard Levi."""
    pos = []
    for r in rs.all_roots:
        f = s.value_at(r)[1]
        if _lex_positive(f) if any(f) else r in rs.positives:
            pos.append(r)
    return _transport_in_subsystem(rs, root_sum(pos, rs.rank), rs.simple_roots, rs.rho)


def _parabolic_positives(rs: RootSystem, nodes):
    """The positive roots supported on the simple-root indices ``nodes``."""
    return {r for r in rs.positives if not any(x for i, x in enumerate(r) if i not in nodes)}


def _longest_element(rs: RootSystem, nodes) -> WeylElement:
    """w0 of the standard parabolic subgroup on ``nodes``."""
    rho = root_sum(_parabolic_positives(rs, nodes), rs.rank)
    neg_base = [vec_neg(rs.simple_roots[i]) for i in nodes]
    return _transport_in_subsystem(rs, rho, neg_base, vec_neg(rho))


def _alcove_walls(rs: RootSystem, J):
    """For simple-root indices J: the highest root theta_c of each component
    c of J with its pairings <alpha_i, theta_c^vee>, and a bound on descent
    steps.  Cached per J."""

    def build():
        pos_j, walls = _parabolic_positives(rs, J), []
        for i in J:
            if any(t[i] for t, _ in walls):
                continue
            # the highest root through alpha_i is that of i's component
            theta = max((r for r in pos_j if r[i]), key=sum)
            walls.append((theta, tuple(rs.pairing(a, theta) for a in rs.simple_roots)))
        # each step crosses one hyperplane beta = k between the lift and the alcove
        return tuple(walls), sum(map(sum, rs.positives)) + 1

    return rs.memo("alcove_walls", J, build)


def alcove_omega(rs: RootSystem, a: TorusElement):
    """Omega_J for the alcove point a, J the simple roots of zero free part:
    the products over the components c of J of {1} and w0(J_c minus j).w0(J_c)
    over the mark-1 nodes j of theta_c, identity first.  Cached per J."""
    J = tuple(i for i, f in enumerate(a.free) if not any(f))

    def build():
        one = WeylElement.identity(rs.rank)
        omega = [one]
        for theta, _ in _alcove_walls(rs, J)[0]:
            comp = [k for k, x in enumerate(theta) if x]
            ones = [j for j in comp if theta[j] == 1]
            top = _longest_element(rs, comp) if ones else None
            omega = [w * v for w in omega for v in [one] + [
                _longest_element(rs, [k for k in comp if k != j]) * top for j in ones
            ]]
        return tuple(omega)

    return rs.memo("alcove_omega", J, build)


def alcove_form(rs: RootSystem, s: TorusElement):
    """The W-orbit normal form ``(a, u)`` of a torus element: a = u.s lies in
    the closed alcove of W_J.  Two elements are W-conjugate iff their forms
    share the free part and some element of ``alcove_omega`` carries one form
    onto the other.

    Free phase: ``free_dominance``; the stabilizer of the free part is then
    W_J, J the simple roots of zero free part.  Torsion phase: lift the
    torsion to integers 0 <= n_i < D over one denominator and reflect in a
    violated wall until none is left: s_j when n_j < 0 for j in J, else s_theta
    when theta(n) > D for the highest root theta of a component of J, with
    n -= <., theta^vee>.(theta(n) - D).  The reflections multiply into u.
    """
    u = WeylElement.identity(rs.rank)
    if not s.is_finite_order():
        u = free_dominance(rs, s)
        s = torus_action(u, s)
    J = tuple(i for i, f in enumerate(s.free) if not any(f))
    walls, limit = _alcove_walls(rs, J)
    den = lcm(1, *(t.denominator for t in s.torsion))
    n = [t.numerator * (den // t.denominator) for t in s.torsion]
    rows = [list(row) for row in u.images]
    for _ in range(limit):
        j = next((j for j in J if n[j] < 0), None)
        if j is not None:
            root, pairs, excess = rs.simple_roots[j], [row[j] for row in rs.matrix], n[j]
        else:
            root, pairs = next(((t, p) for t, p in walls if dot(t, n) > den), (None, None))
            if root is None:
                a = TorusElement._reduced(tuple(Fraction(x % den, den) for x in n), s.free)
                return a, WeylElement(rows)
            excess = dot(root, n) - den
        n = [x - p * excess for x, p in zip(n, pairs)]
        for row in rows:
            c = dot(row, pairs)
            if c:
                row[:] = [x - c * t for x, t in zip(row, root)]
    raise InternalConsistencyError("alcove descent failed to terminate")


def kac_coordinates(rs: RootSystem, a: TorusElement):
    """(d, k) for a finite-order alcove point a of a simple type: d = ord(a),
    k_i = d.alpha_i(a) for i >= 1 and k_0 = d - sum_i m_i k_i."""
    d = a.order()
    k = [int(t * d) for t in a.torsion]
    return d, (d - dot(rs.highest_root, k),) + tuple(k)


def find_base_transport(rs: RootSystem, source_base, target_base):
    """The unique w in W with w(source_base) = target_base as sets, else None."""
    source = [tuple(v) for v in source_base]
    target = [tuple(v) for v in target_base]
    pos = [positive_system(rs, rs.all_roots, base) for base in (source, target)]
    if None in pos:
        raise InvalidInput("input is not a base of the root system")
    w = _transport_in_subsystem(rs, root_sum(pos[0], rs.rank), target, root_sum(pos[1], rs.rank))
    if {w(v) for v in source} != set(target):
        return None
    return w


def permutes_roots(rs: RootSystem, lattice_map: WeylElement) -> bool:
    """Whether a lattice map f permutes the roots, read off the simple roots.

    f permutes the roots iff every f(alpha_i) is a root and the Cartan
    integers hold, 2(f alpha_i, f alpha_j) = M_ij.(f alpha_j, f alpha_j):
    then f.s_i.f^-1 = s_{f alpha_i} lies in W, so f(Phi) = f(W.Delta) lies in
    Phi.  No root lengths are compared, so components may differ in scale.
    """
    images = lattice_map.images
    if not all(img in rs.all_roots for img in images):
        return False
    paired = [tuple(dot(row, img) for row in rs.form) for img in images]
    gram = [[dot(x, fy) for fy in paired] for x in images]
    n = rs.rank
    return all(2 * gram[i][j] == rs.matrix[i][j] * gram[j][j] for i in range(n) for j in range(n))


def _descent_of(rs: RootSystem, lattice_map: WeylElement):
    """For a map f permuting the roots, the w in W with w(f(Sigma^+)) = Sigma^+;
    None when f does not permute the roots (``permutes_roots``)."""
    if not permutes_roots(rs, lattice_map):
        return None
    return _transport_in_subsystem(rs, lattice_map(rs.rho), rs.simple_roots, rs.rho)


def weyl_membership(rs: RootSystem, lattice_map: WeylElement):
    """Unique factorization lattice_map = weyl_part * diagram_part.

    The diagram part preserves Delta; it is the identity exactly when the map
    lies in W.  Raises when the map does not permute the root set.
    """
    w = _descent_of(rs, lattice_map)
    if w is None:
        raise InvalidInput("lattice map does not permute the root set")
    residual = w * lattice_map  # preserves Delta setwise
    simple_index = {s: i + 1 for i, s in enumerate(rs.simple_roots)}
    delta_images = []
    for i in range(rs.rank):
        img = residual(rs.simple_roots[i])
        node = simple_index.get(img)
        if node is None:
            raise InternalConsistencyError("residual map does not preserve Delta")
        delta_images.append(node)
    return w.inverse(), DiagramAut((0,) + tuple(delta_images))


def weyl_part_if_member(rs: RootSystem, lattice_map: WeylElement):
    """The map itself when it lies in W, else None (works for product systems).
    The verdict is decided once per map and root system."""

    def build():
        w = _descent_of(rs, lattice_map)
        return w is not None and (w * lattice_map).is_identity()

    return lattice_map if rs.memo("weyl_members", lattice_map.images, build) else None


# -- diagram automorphisms and Omega ------------------------------------------


def enumerate_affine_automorphisms(rs: RootSystem):
    """All permutations of the affine nodes preserving the pairing matrix, in
    lexicographic order."""
    rs._require_simple()

    def build():
        pair = rs.affine_pairing
        results = tuple(DiagramAut(f) for f in diagram_isomorphisms(pair, pair, rs.affine_nodes))
        for aut in results:
            for i in rs.affine_nodes:
                if rs.marks[aut(i)] != rs.marks[i]:
                    raise InternalConsistencyError("diagram automorphism broke the marks")
        return results

    return rs.memo("affine_auts", None, build)


def enumerate_delta_automorphisms(rs: RootSystem):
    """Automorphisms of the finite diagram, as affine perms fixing node 0."""
    return [a for a in enumerate_affine_automorphisms(rs) if a.fixes_node_zero()]


def omega_group(rs: RootSystem):
    """Omega, the subgroup of W preserving the affine node set, read off
    ``alcove_omega`` at the identity: each element with the permutation it
    makes of the affine nodes, sorted by that permutation.  Checked: the
    mark-1 bijection, and Omega abelian and normal in Aut(completed diagram).
    """
    rs._require_simple()

    def build():
        out = []
        for w in alcove_omega(rs, TorusElement.identity(rs.rank)):
            perm = tuple(rs.node_of_root(w(rs.node_root(i))) for i in rs.affine_nodes)
            if None in perm:
                raise InternalConsistencyError("an Omega element does not permute the affine nodes")
            out.append(OmegaElement(aut=DiagramAut(perm), weyl=w))
        mark_one = [i for i in rs.affine_nodes if rs.marks[i] == 1]
        images = sorted(om.aut(0) for om in out)
        if images != sorted(mark_one):
            raise InternalConsistencyError("Omega is not in bijection with the mark-1 nodes")
        # abelian, and stable under conjugation inside Aut(completed diagram)
        perms = {om.aut.perm for om in out}
        for a in out:
            for b in out:
                if a.aut.compose(b.aut).perm != b.aut.compose(a.aut).perm:
                    raise InternalConsistencyError("Omega is not abelian")
        for t in enumerate_affine_automorphisms(rs):
            tinv = t.inverse()
            for om in out:
                if t.compose(om.aut).compose(tinv).perm not in perms:
                    raise InternalConsistencyError("Omega is not normal in Aut")
        return tuple(sorted(out, key=lambda om: om.aut.perm))

    return rs.memo("omega", None, build)


def omega_by_node(rs: RootSystem):
    """Map mark-1 node -> the OmegaElement sending node 0 there."""
    return {om.aut(0): om for om in omega_group(rs)}


def enumerate_weyl(rs: RootSystem, cap: int = 2_000_000):
    """Every element of W as a lattice map, sorted by images, by closure over
    simple reflections.  When |W| exceeds ``cap`` it raises before building."""
    order = weyl_group_order(rs)
    if order > cap:
        raise CapExceeded(f"Weyl group larger than cap {cap}")

    def build():
        gens = simple_reflections(rs)
        seen = {WeylElement.identity(rs.rank)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    h = g * w
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        if len(seen) != order:
            raise InternalConsistencyError(f"the closure has {len(seen)} elements, not |W| = {order}")
        return tuple(sorted(seen, key=lambda w: w.images))

    return rs.memo("weyl", None, build)


# -- torus action --------------------------------------------------------------


def torus_action(w: WeylElement, s: TorusElement) -> TorusElement:
    """(w . s)(alpha) = s(w^{-1} alpha), computed exactly in the Delta-basis."""
    winv = w.inverse()
    torsion, free = zip(*map(s.value_at, winv.images))
    return TorusElement._reduced(torsion, free)


def carries(w: WeylElement, s: TorusElement, t: TorusElement) -> bool:
    """Whether w.s = t, decided on integers without inverting w: as
    (w.s)(alpha) = s(w^{-1} alpha), it holds iff t(w alpha_i) = s(alpha_i)
    for every row w alpha_i of ``w.images``, compared by cross-multiplying
    the numerators of the integer views of s and t."""
    if s.rank != t.rank or s.n_generators != t.n_generators:
        return False
    ds, tns, es, fns = s._int or s._integer_view()
    dt, tnt, et, fnt = t._int or t._integer_view()
    rows = w.images
    if any(dot(row, tnt) % dt * ds != x * dt for row, x in zip(rows, tns)):
        return False
    return not any(
        dot(row, col_t) * es != x * et
        for col_s, col_t in zip(fns, fnt)
        for row, x in zip(rows, col_s)
    )
