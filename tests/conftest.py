from fractions import Fraction

import pytest

from endatlas.rootsys import build_root_system
from endatlas.galois import build_galois_model
from endatlas.torus import TorusElement
from endatlas.weyl import omega_group


@pytest.fixture(scope="session")
def a1():
    return build_root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_system("A2")


@pytest.fixture(scope="session")
def c2():
    return build_root_system("C2")


@pytest.fixture(scope="session")
def d4():
    return build_root_system("D4")


def omega_sending_zero_to(rs, node):
    """The Omega element with node 0 going to the given mark-1 node."""
    return next(om for om in omega_group(rs) if om.aut(0) == node)


def a1_swap_datum(rs_a1):
    """The elliptic torus datum of A1 over Z/2: s = -1, swap cocycle."""
    from endatlas.endodata import make_datum

    galois = build_galois_model("c2:inner", rs_a1)
    swap = omega_sending_zero_to(rs_a1, 1)
    s = TorusElement([Fraction(1, 2)])
    return make_datum(rs_a1, galois, s, {"g": swap.aut}), galois


def a2_rotation_data(rs_a2):
    """The two inequivalent A2/Z3 torus data from the nontrivial cocycles."""
    from endatlas.endodata import make_datum

    galois = build_galois_model("c3:inner", rs_a2)
    r1 = omega_sending_zero_to(rs_a2, 1)
    r2 = omega_sending_zero_to(rs_a2, 2)
    s = TorusElement([Fraction(1, 3), Fraction(1, 3)])
    d1 = make_datum(rs_a2, galois, s, {"g1": r1.aut, "g2": r2.aut})
    d2 = make_datum(rs_a2, galois, s, {"g1": r2.aut, "g2": r1.aut})
    return d1, d2, galois


# -- the Fraction pairing, the oracle of RootSystem.pairing on the integer form --


def fraction_pairing(rs, beta, gamma):
    """<beta, gamma-coroot> = 2(beta, gamma)/(gamma, gamma) summed in Fractions
    over the Cartan matrix and the root lengths; ValueError off the integers."""
    def form(x, y):
        return sum(
            xi * yj * rs.matrix[i][j] * rs.lengths[j]
            for i, xi in enumerate(x) if xi
            for j, yj in enumerate(y) if yj
        )

    val = 2 * Fraction(form(beta, gamma)) / form(gamma, gamma)
    if val.denominator != 1:
        raise ValueError("pairing of non-roots")
    return int(val)


# -- Fraction references for the integer elimination ----------------------------


def fraction_row_reduce(rows, k):
    """Gauss-Jordan over Q on the first k columns; returns (reduced rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(k):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def fraction_rank(vectors):
    vectors = list(vectors)
    return len(fraction_row_reduce(vectors, len(vectors[0]))[1]) if vectors else 0


def fraction_solve(basis, target):
    """Coordinates over Q of target in an independent basis, or None outside
    its span; ValueError for a dependent basis."""
    k = len(basis)
    rows, pivots = fraction_row_reduce(
        [[b[i] for b in basis] + [target[i]] for i in range(len(target))], k
    )
    if len(pivots) != k:
        raise ValueError("basis vectors are linearly dependent")
    if any(row[k] != 0 for row in rows[k:]):
        return None
    return tuple(rows[i][k] for i in range(k))


# -- breadth-first W-orbit walks, the oracles of the alcove normal form ---------


def bfs_orbit_search(rs, s1, s2):
    """Breadth-first search for w with w(s1) = s2 over simple reflections,
    or None when s2 is outside the W-orbit of s1."""
    from endatlas.weyl import WeylElement, simple_reflections, torus_action

    if s1 == s2:
        return WeylElement.identity(rs.rank)
    gens = simple_reflections(rs)
    parent = {s1.key(): None}
    frontier = [s1]
    while frontier:
        nxt = []
        for cur in frontier:
            for j, g in enumerate(gens):
                img = torus_action(g, cur)
                k = img.key()
                if k in parent:
                    continue
                parent[k] = (cur, j)
                if img == s2:
                    w = WeylElement.identity(rs.rank)
                    while parent[k] is not None:
                        prev, jj = parent[k]
                        w = w * gens[jj]
                        k = prev.key()
                    return w
                nxt.append(img)
        frontier = nxt
    return None


def bfs_canonical_s_reps(rs, order_bound):
    """The first point in grid order of each W-orbit on the torsion grid with
    denominator ``order_bound``, each orbit closed by breadth-first search."""
    from itertools import product

    from endatlas.weyl import simple_reflections, torus_action

    gens = simple_reflections(rs)
    seen, reps = set(), []
    for coords in product(range(order_bound), repeat=rs.rank):
        s = TorusElement([Fraction(c, order_bound) for c in coords])
        if s.key() in seen:
            continue
        reps.append(s)
        seen.add(s.key())
        frontier = [s]
        while frontier:
            nxt = []
            for cur in frontier:
                for g in gens:
                    img = torus_action(g, cur)
                    if img.key() not in seen:
                        seen.add(img.key())
                        nxt.append(img)
            frontier = nxt
    return reps


# -- the layered construction, the oracle of the Kac-coordinate normalization ---


def layered_construction(rs, s, base):
    """d and the nonempty layers (k, X_k) of the layered root construction
    for finite-order s and a base ``base`` of its centralizer roots: Y_k holds
    the roots of value k/d, Z_k the part of Y_k outside the Z-span of
    Y_0..Y_{k-1}, and X_k the minimal elements of Z_k in the cone order of
    ``base``; X_0 is ``base``."""
    from endatlas._linalg import integer_cone_order, zspan_basis, zspan_contains

    d = s.order()
    ys = {}
    for r in rs.all_roots:
        t, _ = s.value_at(r)
        assert (t * d).denominator == 1
        ys.setdefault(int(t * d) % d, []).append(r)
    leq = integer_cone_order(base, rs.rank)
    layers = [(0, frozenset(base))] if base else []
    basis, below = [], ys.pop(0, [])
    for k in sorted(ys):
        basis = zspan_basis(basis + below)
        zk = [r for r in ys[k] if not (basis and zspan_contains(basis, r))]
        minimal = [r for r in zk if not any(q != r and leq(q, r) for q in zk)]
        if minimal:
            layers.append((k, frozenset(minimal)))
        below = ys[k]
    return d, tuple(layers)


# -- the layer criterion, the oracle of ellipticity -------------------------------


def layer_criterion_elliptic(datum):
    """Ellipticity read off the Langlands normalization of a finite-order datum
    of simple type: for shape Delta_a, dim Q[Delta_a]^Gamma = 1 + dim Q[X_0]^Gamma
    on the affine nodes; for shape Delta, dim X*(T)^Gamma = dim Q[X_0]^Gamma."""
    from endatlas._linalg import fixed_space_dimension
    from endatlas.endodata import _orbits, langlands_normalize

    nd, ld = langlands_normalize(datum)
    rs = nd.rs
    x0 = sorted(ld.layer(0))
    if ld.shape == "DeltaA":
        acts = [nd.node_action(a) for a in range(len(nd.galois))]
        x0_nodes = [rs.node_of_root(r) for r in x0]
        return len(_orbits(acts, rs.affine_nodes)) == 1 + len(_orbits(acts, x0_nodes))
    for a in nd.family:
        assert {a(r) for r in x0} == set(x0), "the action does not permute the base layer"
    dim_fixed = fixed_space_dimension([a.images for a in nd.family], rs.rank)
    return dim_fixed == len(_orbits(nd.family, x0))


# -- generators of a finite group, the oracle of GaloisModel.words ----------------


def generating_set(model):
    """The generators chosen one at a time: each is the least element outside
    the closure of the earlier ones under multiplication on either side."""
    gens = []
    closure = {0}
    for a in range(len(model)):
        if a in closure:
            continue
        gens.append(a)
        frontier = [a]
        while frontier:
            nxt = []
            for x in closure | set(frontier):
                for g in gens:
                    for y in (model.table[x][g], model.table[g][x]):
                        if y not in closure and y not in frontier and y not in nxt:
                            nxt.append(y)
            closure |= set(frontier)
            frontier = nxt
        if len(closure) == len(model):
            break
    return gens


# -- the pairwise Omega search, the oracle of the Omega action on the pairs -------


def omega_conjugating(rs, sets1, sets2, acts1, acts2):
    """The Omega elements om, in order, with om(sets1[i]) = sets2[i] for every
    node set and om . acts1[a] . om^{-1} = acts2[a] for every node action."""
    for om in omega_group(rs):
        if any(
            frozenset(om.aut(i) for i in x) != y for x, y in zip(sets1, sets2)
        ):
            continue
        inv = om.aut.inverse()
        if all(
            om.aut.compose(a1).compose(inv).perm == a2.perm
            for a1, a2 in zip(acts1, acts2)
        ):
            yield om


def pair_equivalent(rs, galois, p1, p2):
    """The Omega element carrying one pair to the other, or None."""
    n = len(galois)
    sp1 = [p1.cocycle.sigma_prime(galois, a) for a in range(n)]
    sp2 = [p2.cocycle.sigma_prime(galois, a) for a in range(n)]
    return next(omega_conjugating(rs, [p1.orbit], [p2.orbit], sp1, sp2), None)


def pairwise_classes(rs, galois, pairs):
    """The pairs grouped by a greedy pairwise search: each pair joins the
    first class whose first pair ``pair_equivalent`` carries onto it."""
    classes = []
    for p in pairs:
        for cl in classes:
            if pair_equivalent(rs, galois, cl[0], p) is not None:
                cl.append(p)
                break
        else:
            classes.append([p])
    return classes


# -- Out and the kernel tower, read off the normalized datum ----------------------


def out_group(datum):
    """Out of the datum: the Omega elements stabilizing the layers and the action."""
    from endatlas.endodata import langlands_normalize
    from endatlas.errors import InvalidInput

    nd = langlands_normalize(datum)[0]
    if nd.langlands.shape != "DeltaA":
        raise InvalidInput(
            "Out is defined by the layer criterion only when the layered set is "
            "the completed diagram"
        )
    rs = nd.rs
    layers = [frozenset(rs.node_of_root(r) for r in x) for k, x in nd.langlands.layers if k]
    acts = [nd.node_action(a) for a in range(len(nd.galois))]
    return list(omega_conjugating(rs, layers, layers, acts, acts))


def kernel_tower_ok(datum):
    """The kernel of the composite action acts trivially on the diagram, and on
    the diagram kernel the cocycle alone determines the action (the semidirect
    splitting of the completed diagram automorphisms)."""
    for a in range(len(datum.galois)):
        if datum.family[a].is_identity():
            if not datum.galois.phi(a).is_identity():
                return False
            if not datum.w_value(a).is_identity():
                return False
    return True


# -- chamber descent on root sets, the oracle of the descent on rho ---------------


def set_descent(rs, pos, target_base, target_pos):
    """The element v of a subsystem's Weyl group with v(pos) = target_pos, by
    mapping the whole positive set through each reflection in the first
    target simple root that is negative for it."""
    from endatlas.weyl import WeylElement

    pos = set(pos)
    order = sorted(target_base)
    v = WeylElement.identity(rs.rank)
    for _ in range(len(pos) + 2):
        if pos == set(target_pos):
            return v
        t = next(t for t in order if tuple(-x for x in t) in pos)
        s_t = WeylElement(tuple(rs.reflect(t, a) for a in rs.simple_roots))
        pos = {s_t(r) for r in pos}
        v = s_t * v
    raise AssertionError("descent failed to terminate")


def root_sweep_descent(rs, lattice_map):
    """For a map permuting the roots, the w in W with w(map(Sigma^+)) = Sigma^+,
    found by mapping every root; None when the map does not permute them."""
    images = {r: lattice_map(r) for r in rs.all_roots}
    if set(images.values()) != rs.all_roots:
        return None
    return set_descent(rs, {images[r] for r in rs.positives}, rs.simple_roots, rs.positives)


def omega_by_membership(rs):
    """Omega as (perm, images) pairs in perm order: the automorphisms of the
    completed diagram whose lattice maps lie in W by the root-sweep descent."""
    from endatlas.weyl import enumerate_affine_automorphisms

    out = []
    for aut in enumerate_affine_automorphisms(rs):
        lat = aut.lattice(rs)
        w = root_sweep_descent(rs, lat)
        if (w * lat).is_identity():
            out.append((aut.perm, lat.images))
    return sorted(out)


# -- the difference search, the oracle of the base read off rho --------------------


def difference_search_borel(rs, s):
    """The standard positive system of the centralizer roots of s, as its sum,
    and its simple system: the roots of the positive system that are no
    difference r - q of two others."""
    from endatlas.endodata import centralizer_roots
    from endatlas.rootsys import root_sum

    sub_pos = centralizer_roots(rs, s) & rs.positives
    base = [
        r for r in sub_pos
        if not any(tuple(a - b for a, b in zip(r, q)) in sub_pos for q in sub_pos if q != r)
    ]
    return root_sum(sub_pos, rs.rank), tuple(sorted(base))


# -- the unfiltered backtracking, the oracle of the row-multiset prefilter ---------


def unfiltered_diagram_isomorphisms(pattern, pair, nodes):
    """Every sequence f of distinct ``nodes`` with pair[f[p]][f[q]] == pattern[p][q],
    in lexicographic order, by backtracking alone."""
    nodes = sorted(nodes)
    size = len(pattern)
    assigned = []

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

    return list(extend())


# -- the hand-written groups, the oracles of the permutation closure ---------------


def hand_cyclic(n):
    """Names and table of Z/n written out: element k is g^k, (i + j) mod n."""
    names = ["e"] + [f"g{k}" if n > 2 else "g" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return names, table


HAND_S3_NAMES = ("e", "r", "rr", "s", "rs", "rrs")


def hand_s3_table():
    """The S3 table by the semidirect-product formula on r^a s^b."""
    # r^3 = s^2 = e, s r s = r^-1; element = r^a s^b encoded (a, b)
    enc = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    idx = {v: i for i, v in enumerate(enc)}

    def mul(x, y):
        a, b = x
        c, d = y
        # (r^a s^b)(r^c s^d) = r^(a + c*(-1)^b) s^(b+d)
        return ((a + (c if b == 0 else -c)) % 3, (b + d) % 2)

    return [[idx[mul(x, y)] for y in enc] for x in enc]


def hand_s3_action():
    """The S3 action on D4 listed element by element."""
    from endatlas.weyl import DiagramAut

    rot = DiagramAut((0, 3, 2, 4, 1))   # fixes a2 and a0, cycles a1, a3, a4
    flip = DiagramAut((0, 1, 2, 4, 3))  # swaps a3, a4
    return [DiagramAut.identity(4), rot, rot * rot, flip, rot * flip, rot * rot * flip]


def hand_outer_generator(rs, n):
    """The least diagram automorphism of order n found by an order loop, with
    the triality rotation picked explicitly when n = 3."""
    from endatlas.errors import InvalidInput
    from endatlas.weyl import enumerate_delta_automorphisms

    of_order = []
    for a in enumerate_delta_automorphisms(rs):
        if a.is_identity():
            continue
        k, cur = 1, a
        while not cur.is_identity():
            cur = cur.compose(a)
            k += 1
        if k == n:
            of_order.append(a)
    if not of_order:
        raise InvalidInput(
            f"type {rs.type} admits no diagram automorphism of order {n}; "
            f"the outer preset is incompatible with it"
        )
    if n == 3:
        pick = [a for a in of_order if a.perm == (0, 3, 2, 4, 1)]
        return pick[0] if pick else sorted(of_order, key=lambda a: a.perm)[0]
    return sorted(of_order, key=lambda a: a.perm)[0]


def hand_preset_model(name, rs):
    """The preset model from the hand-written groups, with the preset refusals."""
    from endatlas.errors import DEFAULT_WORK_CAP, CapExceeded, InvalidInput
    from endatlas.galois import GaloisModel
    from endatlas.weyl import DiagramAut

    if name == "trivial":
        return GaloisModel(["e"], [[0]], [DiagramAut.identity(rs.rank)], rs)
    if name == "s3":
        if not (rs.is_simple and str(rs.type) == "D4"):
            raise InvalidInput("preset 's3' needs type D4 (Aut of the diagram is S3 only there)")
        return GaloisModel(HAND_S3_NAMES, hand_s3_table(), hand_s3_action(), rs)
    base, variant = name.split(":", 1)
    n = int(base[1:])
    if n < 1:
        raise InvalidInput("cyclic preset needs order >= 1")
    if n**3 > DEFAULT_WORK_CAP:
        raise CapExceeded(f"cyclic preset of order {n} exceeds the work cap {DEFAULT_WORK_CAP}")
    names, table = hand_cyclic(n)
    if variant == "inner":
        return GaloisModel(names, table, [DiagramAut.identity(rs.rank)] * n, rs)
    gen_aut = hand_outer_generator(rs, n)
    action = []
    cur = DiagramAut.identity(rs.rank)
    for _ in range(n):
        action.append(cur)
        cur = cur * gen_aut
    return GaloisModel(names, table, action, rs)


def hand_shapiro_configurations(base_types):
    """The Shapiro battery from the hand-written Z/2, Z/4 and S3 tables."""
    from endatlas.rootsys import build_root_system
    from endatlas.weyl import enumerate_delta_automorphisms

    configs = []
    for t in base_types:
        rs = build_root_system(t)
        flips = [a for a in enumerate_delta_automorphisms(rs) if not a.is_identity()]
        z2n, z2t = hand_cyclic(2)
        z4n, z4t = hand_cyclic(4)
        s3t = hand_s3_table()
        configs.append((t, "trivial", z2n, z2t, [0]))
        configs.append((t, "c2:inner", z4n, z4t, [0, 2]))
        configs.append((t, "c3:inner", list(HAND_S3_NAMES), s3t, [0, 1, 2]))
        configs.append((t, "c2:inner", list(HAND_S3_NAMES), s3t, [0, 3]))
        if flips:
            configs.append((t, "c2:outer", list(HAND_S3_NAMES), s3t, [0, 3]))
    return configs
