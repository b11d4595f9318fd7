"""Root systems for the simple Cartan types and their completed diagram data.

Roots are integer vectors in the simple-root basis (the Delta-basis); all
arithmetic is exact.  Node numbering follows Bourbaki, with the lowest root
adjoined as node 0.  Beyond the connected types, a root system can also be a
product of copies of a base type (used by the restriction-of-scalars
machinery); product systems carry no affine data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm, prod

from ._linalg import dot, vec_neg, vec_sub
from .errors import DEFAULT_WORK_CAP, CapExceeded, InvalidInput

_ADMISSIBLE_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "F": 4, "G": 2}
_ADMISSIBILITY_RULE = (
    "admissible types: A(n>=1), B(n>=2), C(n>=2), D(n>=4), E(6,7,8), F4, G2"
)


@dataclass(frozen=True, order=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        if fam == "E":
            if n not in (6, 7, 8):
                raise InvalidInput(f"E{n} is not admissible; {_ADMISSIBILITY_RULE}")
            return
        if fam in ("F", "G"):
            if n != _ADMISSIBLE_MIN_RANK[fam]:
                raise InvalidInput(f"{fam}{n} is not admissible; {_ADMISSIBILITY_RULE}")
            return
        if fam not in _ADMISSIBLE_MIN_RANK or n < _ADMISSIBLE_MIN_RANK[fam]:
            raise InvalidInput(f"{fam}{n} is not admissible; {_ADMISSIBILITY_RULE}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(text: str) -> "CartanType":
        text = text.strip()
        if len(text) < 2 or not text[0].isalpha() or not text[1:].isdigit():
            raise InvalidInput(
                f"cannot parse Cartan type {text!r}; expected letter+rank like 'C3'"
            )
        return CartanType(text[0].upper(), int(text[1:]))


def cartan_matrix(ct: CartanType):
    """Cartan matrix with M[i][j] = <alpha_i, alpha_j-coroot> (0-indexed)."""
    n = ct.rank
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2

    def bond(i, j, mij=-1, mji=-1):
        m[i][j] = mij
        m[j][i] = mji

    fam = ct.family
    if fam == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif fam == "B":
        # alpha_n short: <alpha_{n-1}, alpha_n-coroot> = -2
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif fam == "C":
        # alpha_n long: <alpha_n, alpha_{n-1}-coroot> = -2
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif fam == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif fam == "E":
        # Bourbaki: chain 1-3-4-5-6(-7(-8)), node 2 hangs off node 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif fam == "G":
        bond(0, 1, -1, -3)
    return tuple(tuple(r) for r in m)


def _root_lengths(matrix):
    """Half square lengths d_i = (alpha_i, alpha_i)/2 up to a scale, exact."""
    n = len(matrix)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and matrix[i][j] != 0 and d[j] is None:
                    # M[i][j] d_j = M[j][i] d_i
                    d[j] = d[i] * Fraction(matrix[j][i], matrix[i][j])
                    stack.append(j)
    return tuple(d)


def root_sum(roots, rank):
    """rho_P, the sum of the roots of P (twice Bourbaki's half-sum).  For a
    positive system P it is regular with P = {r : (rho_P, r) > 0}, so it
    stands for P."""
    return tuple(sum(r[i] for r in roots) for i in range(rank))


# the memos ``RootSystem.memo`` keeps, each a dict from key to value
_MEMOS = (
    "affine_pairing", "components",  # rootsys
    "node_lattices", "simple_reflections", "alcove_walls", "alcove_omega",  # weyl
    "weyl_members", "affine_auts", "omega", "weyl",  # weyl
    "pairs", "inventory",  # elliptic
)


class RootSystem:
    """Immutable root system; construct via build_root_system or product_root_system."""

    def __init__(self, components, _internal=False):
        if not _internal:
            raise InvalidInput("use build_root_system() or product_root_system()")
        self._memos = {name: {} for name in _MEMOS}
        self.components = tuple(components)  # tuple of (CartanType, offset)
        self.type = self.components[0][0] if len(self.components) == 1 else None
        self.is_simple = self.type is not None
        self.rank = sum(ct.rank for ct, _ in self.components)
        n = self.rank
        n_pos = sum(_positive_root_count(ct) for ct, _ in self.components)
        if n_pos**2 * n > DEFAULT_WORK_CAP:
            # quadratic root-pair sweeps such as the minimality test of
            # elliptic.verify_sigma_structure cost |Phi+|^2 . rank
            raise CapExceeded(f"root system of rank {n} exceeds the work cap {DEFAULT_WORK_CAP}")
        m = [[0] * n for _ in range(n)]
        for ct, off in self.components:
            block = cartan_matrix(ct)
            for i in range(ct.rank):
                for j in range(ct.rank):
                    m[off + i][off + j] = block[i][j]
        self.matrix = tuple(tuple(r) for r in m)
        self.lengths = _root_lengths(self.matrix)
        # the W-invariant form (alpha_i, alpha_j) = M_ij.d_j, scaled to integers
        den = lcm(*(d.denominator for d in self.lengths))
        self.form = tuple(
            tuple(int(c * d * den) for c, d in zip(row, self.lengths)) for row in self.matrix
        )
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        self.all_roots = self._generate_roots()
        self.positives = frozenset(r for r in self.all_roots if min(r) >= 0)
        self.rho = root_sum(self.positives, n)
        if self.is_simple:
            self._init_affine()

    def memo(self, name, key, build):
        """The value of ``build()`` for ``key`` in the memo ``name``: built on
        the first request and kept as long as the root system.  Values are
        immutable (tuples, lattice maps, verdicts), so callers share the
        stored value itself; a build that raises stores nothing."""
        table = self._memos[name]
        if key not in table:
            table[key] = build()
        return table[key]

    # -- generation ---------------------------------------------------------

    def pairing(self, beta, gamma) -> int:
        """<beta, gamma-coroot> = 2(beta, gamma)/(gamma, gamma) for arbitrary
        roots, exact integer, on the integer form ``form``."""
        f_gamma = [dot(row, gamma) for row in self.form]
        val, rem = divmod(2 * dot(beta, f_gamma), dot(gamma, f_gamma))
        if rem:
            raise InvalidInput("pairing of non-roots requested")
        return val

    def simple_pairing(self, beta, j) -> int:
        """<beta, alpha_j-coroot> via the Cartan matrix column."""
        return sum(bi * self.matrix[i][j] for i, bi in enumerate(beta) if bi)

    def reflect_simple(self, j, beta):
        c = self.simple_pairing(beta, j)
        if c == 0:
            return beta
        out = list(beta)
        out[j] -= c
        return tuple(out)

    def reflect(self, root, beta):
        """Reflection of beta in an arbitrary root."""
        c = self.pairing(beta, root)
        if c == 0:
            return beta
        return vec_sub(beta, tuple(c * x for x in root))

    def _generate_roots(self):
        found = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            nxt = []
            for beta in frontier:
                for j in range(self.rank):
                    img = self.reflect_simple(j, beta)
                    if img not in found:
                        found.add(img)
                        nxt.append(img)
            frontier = nxt
        return frozenset(found)

    # -- affine data (simple types only) -------------------------------------

    def _init_affine(self):
        # the highest root is the unique positive root of maximal height
        by_height = sorted(self.positives, key=sum)
        if len(by_height) > 1 and sum(by_height[-1]) == sum(by_height[-2]):
            raise InvalidInput("internal: highest root not unique")
        self.highest_root = by_height[-1]
        self.lowest_root = vec_neg(self.highest_root)
        marks = {0: 1}
        for i, c in enumerate(self.highest_root):
            marks[i + 1] = c
        self.marks = marks
        self.affine_nodes = tuple(range(self.rank + 1))

    def node_root(self, node: int):
        """The root vector attached to an affine node (0 = lowest root)."""
        self._require_simple()
        return self.lowest_root if node == 0 else self.simple_roots[node - 1]

    def node_of_root(self, vec):
        self._require_simple()
        if vec == self.lowest_root:
            return 0
        for i, s in enumerate(self.simple_roots):
            if vec == s:
                return i + 1
        return None

    @property
    def affine_pairing(self):
        self._require_simple()

        def build():
            vecs = [self.node_root(i) for i in self.affine_nodes]
            return tuple(tuple(self.pairing(a, b) for b in vecs) for a in vecs)

        return self.memo("affine_pairing", None, build)

    def _require_simple(self):
        if not self.is_simple:
            raise InvalidInput("operation requires a connected (simple) type")

    # -- misc ----------------------------------------------------------------

    def node_name(self, node: int) -> str:
        return f"a{node}"

    def __repr__(self):
        if self.is_simple:
            return f"RootSystem({self.type})"
        return "RootSystem(%s)" % "x".join(str(ct) for ct, _ in self.components)


@lru_cache(maxsize=None)
def _build_cached(ct: CartanType) -> RootSystem:
    return RootSystem([(ct, 0)], _internal=True)


def build_root_system(ct) -> RootSystem:
    """Root system of a single admissible Cartan type (string or CartanType)."""
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    return _build_cached(ct)


def product_root_system(types) -> RootSystem:
    """Product of simple systems, used for induced (restriction of scalars) models."""
    comps = []
    off = 0
    for t in types:
        ct = CartanType.parse(t) if isinstance(t, str) else t
        comps.append((ct, off))
        off += ct.rank
    if len(comps) == 1:
        return build_root_system(comps[0][0])
    return RootSystem(comps, _internal=True)


@dataclass(frozen=True)
class AffineDiagram:
    """Labeled completed diagram: nodes, bonds with multiplicity and arrow."""

    nodes: tuple
    bonds: tuple  # ((i, j), multiplicity, arrow_to or None) with i < j
    marks: tuple  # marks indexed by node


def affine_diagram(rs: RootSystem) -> AffineDiagram:
    rs._require_simple()
    pair = rs.affine_pairing
    bonds = []
    for i, j in combinations(rs.affine_nodes, 2):
        mult = pair[i][j] * pair[j][i]
        if mult == 0:
            continue
        arrow = None
        if 1 < mult < 4:
            # arrow points at the shorter root, the endpoint with |<other, it>| > 1
            arrow = j if abs(pair[i][j]) > 1 else i
        bonds.append(((i, j), mult, arrow))
    return AffineDiagram(
        nodes=rs.affine_nodes,
        bonds=tuple(bonds),
        marks=tuple(rs.marks[i] for i in rs.affine_nodes),
    )


def _candidate_types(size: int):
    cands = [CartanType("A", size)]
    if size >= 2:
        cands.append(CartanType("B", size))
    if size >= 3:
        cands.append(CartanType("C", size))
    if size >= 4:
        cands.append(CartanType("D", size))
    if size in (6, 7, 8):
        cands.append(CartanType("E", size))
    if size == 4:
        cands.append(CartanType("F", 4))
    if size == 2:
        cands.append(CartanType("G", 2))
    return cands


def diagram_isomorphisms(pattern, pair, nodes):
    """Every sequence f of distinct ``nodes`` with pair[f[p]][f[q]] == pattern[p][q]
    for all positions p, q of the square matrix ``pattern``, in lexicographic
    order: a backtracking search that places one node per position."""
    nodes = sorted(nodes)
    size = len(pattern)
    assigned = []
    # a bijection onto ``nodes`` permutes the rows and their entries
    if len(nodes) == size and sorted(sorted(row) for row in pattern) != sorted(
        sorted(pair[i][j] for j in nodes) for i in nodes
    ):
        return iter(())

    def extend():
        pos = len(assigned)
        if pos == size:
            yield tuple(assigned)
            return
        for cand in nodes:
            if cand in assigned or pair[cand][cand] != pattern[pos][pos]:
                continue
            if all(
                pair[a][cand] == pattern[p][pos] and pair[cand][a] == pattern[pos][p]
                for p, a in enumerate(assigned)
            ):
                assigned.append(cand)
                yield from extend()
                assigned.pop()

    return extend()


def _match_component(nodes, pair):
    """Recognize one connected labeled component; return (CartanType, ordered
    node tuple).

    Takes the first admissible type of the right size whose Cartan matrix the
    pairing matches, with the lexicographically least matching node sequence;
    a 2-node double bond is therefore always reported as B2 with the long root
    first.
    """
    for ct in _candidate_types(len(nodes)):
        first = next(diagram_isomorphisms(cartan_matrix(ct), pair, nodes), None)
        if first is not None:
            return ct, first
    raise InvalidInput("subdiagram component is not of finite Cartan type")


def subdiagram_components(rs: RootSystem, nodes):
    """Connected components of the labeled subdiagram induced on affine nodes.

    ``nodes`` is a collection of affine node indices, linearly independent as
    roots.  The node roots of a simple system satisfy exactly one linear
    relation, sum m_i node_root(i) = 0 over the marks, and every mark is
    positive, so a node set is dependent exactly when it is all of them;
    that set is an ``InvalidInput``.  Returns [(CartanType, [node indices in
    Bourbaki order])], sorted.  Each connected node set is recognized once
    per root system (the memo ``components``); the lists returned are fresh.
    """
    rs._require_simple()
    nodes = sorted(set(nodes))
    for n in nodes:
        if n not in rs.affine_nodes:
            raise InvalidInput(f"unknown affine node {n}")
    if len(nodes) == len(rs.affine_nodes):
        raise InvalidInput("node set is linearly dependent as roots")
    pair = rs.affine_pairing
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        stack = [seed]
        while stack:
            cur = stack.pop()
            for other in remaining - comp:
                if pair[cur][other] != 0:
                    comp.add(other)
                    stack.append(other)
        remaining -= comp
        ct, order = rs.memo("components", frozenset(comp), lambda: _match_component(comp, pair))
        comps.append((ct, list(order)))
    comps.sort(key=lambda c: c[1])
    return comps


def weyl_order(ct: CartanType) -> int:
    """Order of the Weyl group, used for cost caps."""
    n = ct.rank
    if ct.family == "A":
        return factorial(n + 1)
    if ct.family in ("B", "C"):
        return 2**n * factorial(n)
    if ct.family == "D":
        return 2 ** (n - 1) * factorial(n)
    if ct.family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if ct.family == "F":
        return 1152
    return 12


def weyl_group_order(rs: RootSystem) -> int:
    """|W|, the product of the Weyl group orders of the components."""
    return prod(weyl_order(ct) for ct, _ in rs.components)


def _positive_root_count(ct: CartanType) -> int:
    """|Phi+| = rank . h / 2, with h the Coxeter number."""
    n = ct.rank
    coxeter = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2,
               "E": {6: 12, 7: 18, 8: 30}.get(n), "F": 12, "G": 6}
    return n * coxeter[ct.family] // 2


ALL_TYPES_THROUGH_RANK_8 = tuple(
    [CartanType("A", n) for n in range(1, 9)]
    + [CartanType("B", n) for n in range(2, 9)]
    + [CartanType("C", n) for n in range(2, 9)]
    + [CartanType("D", n) for n in range(4, 9)]
    + [CartanType("E", n) for n in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)
