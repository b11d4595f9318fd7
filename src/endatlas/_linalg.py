"""Exact linear algebra over Z, with Fractions only at the edges.

Everything in the package is lattice-level: vectors are tuples of ints (roots
in the simple-root basis).  Sizes are tiny (rank <= 8, at most a few dozen
vectors), so clarity beats asymptotics throughout.

There is one elimination, ``integer_gauss_jordan``: a fraction-free (Bareiss)
Gauss-Jordan over Z whose divisions are all exact.  It inverts unimodular
lattice maps, and ``span_functionals`` turns an independent set into integer
span checks and coordinate functionals, on which ``rank``, ``solve_in_basis``,
``fixed_space_dimension`` and ``integer_cone_order`` are built.  Only
``solve_in_basis`` takes and returns Fractions, scaling its input by a common
denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

Vec = tuple


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vec_neg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def dot(x, y) -> int:
    return sum(map(mul, x, y))


def integer_gauss_jordan(rows, k):
    """Fraction-free (Bareiss) Gauss-Jordan elimination over Z on the first
    ``k`` columns of an integer matrix; columns without a pivot are skipped.

    Returns ``(d, pivots, out)`` with ``out = E . rows`` for an integer row
    operation E.  Row i of ``out`` has d in column ``pivots[i]`` and 0 in the
    other pivot columns; the rows below ``len(pivots)`` are zero on the first
    ``k`` columns.  d is a minor of ``rows`` up to sign (1 with no pivot).
    Every division is exact, because each entry is a minor of ``rows``.
    """
    m = [list(r) for r in rows]
    n = len(m)
    prev = 1
    pivots = []
    for c in range(k):
        r = len(pivots)
        pr = next((i for i in range(r, n) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv_row = m[r]
        pv = piv_row[c]
        for i in range(n):
            f = m[i][c]
            if i != r and (f or pv != prev):
                m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], piv_row)]
        prev = pv
        pivots.append(c)
    return prev, pivots, m


def span_functionals(basis, dim: int):
    """Integer functionals of independent vectors in Z^dim: ``(d, P, Z)`` such
    that v lies in their span iff Z.v = 0, and its coordinates are then
    P.v / d.  None when the vectors are dependent.

    One elimination of [B^T | I] ends at [E.B^T | E] with E.B^T = [d.I ; 0],
    so P and Z are the top and bottom rows of E.
    """
    k = len(basis)
    aug = [[b[i] for b in basis] + [int(i == j) for j in range(dim)] for i in range(dim)]
    d, pivots, rows = integer_gauss_jordan(aug, k)
    if len(pivots) < k:
        return None
    return d, [row[k:] for row in rows[:k]], [row[k:] for row in rows[k:]]


def solve_in_basis(basis, target):
    """Coordinates of ``target`` over Q in the given independent ``basis``.

    Entries may be ints or Fractions.  Returns a tuple of Fractions, or None
    when target is outside the span.
    """
    den = lcm(1, *(x.denominator for v in (*basis, target) for x in v))
    fn = span_functionals([[int(x * den) for x in b] for b in basis], len(target))
    if fn is None:
        raise ValueError("basis vectors are linearly dependent")
    d, coords, span = fn
    t = [int(x * den) for x in target]
    if any(dot(z, t) for z in span):
        return None
    return tuple(Fraction(dot(p, t), d) for p in coords)


def integer_cone_order(basis, dim: int):
    """``leq(a, b)``: whether b - a is a nonnegative integer combination of
    the independent ``basis`` in Z^dim.  The elimination runs once, here."""
    fn = span_functionals(basis, dim)
    if fn is None:
        raise ValueError("basis vectors are linearly dependent")
    d, coords, span = fn

    def leq(a, b) -> bool:
        diff = vec_sub(b, a)
        if any(dot(z, diff) for z in span):
            return False
        return all(x % d == 0 and x // d >= 0 for x in (dot(p, diff) for p in coords))

    return leq


def rank(vectors) -> int:
    """Rank over Q of a list of integer vectors."""
    rows = [list(v) for v in vectors]
    return len(integer_gauss_jordan(rows, len(rows[0]))[1]) if rows else 0


def zspan_basis(vectors):
    """Row-echelon Z-basis (Hermite-style) of the integer span of ``vectors``."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return []
    n = len(rows[0])
    basis: list[list[int]] = []
    pivot_col = 0
    while rows and pivot_col < n:
        pool = [r for r in rows if r[pivot_col] != 0]
        rest = [r for r in rows if r[pivot_col] == 0]
        if not pool:
            rows = rest
            pivot_col += 1
            continue
        # Euclid on the leading entries until one row survives in this column.
        while len(pool) > 1:
            pool.sort(key=lambda r: abs(r[pivot_col]))
            a = pool[0]
            for r in pool[1:]:
                q = r[pivot_col] // a[pivot_col]
                for i in range(n):
                    r[i] -= q * a[i]
            rest.extend(r for r in pool[1:] if r[pivot_col] == 0 and any(r))
            pool = [a] + [r for r in pool[1:] if r[pivot_col] != 0]
        piv = pool[0]
        if piv[pivot_col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        rows = rest
        pivot_col += 1
    # Reduce entries above each pivot for a canonical form.
    for i in range(len(basis) - 1, -1, -1):
        c = next(j for j in range(n) if basis[i][j] != 0)
        for k in range(i):
            q = basis[k][c] // basis[i][c]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return [tuple(r) for r in basis]


def zspan_contains(basis, target) -> bool:
    """Whether ``target`` lies in the integer span of an echelon ``basis``."""
    t = list(target)
    n = len(t)
    for row in basis:
        c = next(j for j in range(n) if row[j] != 0)
        if t[c] % row[c] != 0:
            return False
        q = t[c] // row[c]
        for i in range(n):
            t[i] -= q * row[i]
    return not any(t)


def fixed_space_dimension(matrices, dim: int) -> int:
    """Dimension of the common fixed space of a finite group of lattice maps.

    ``matrices`` are row-image matrices (row i = image of basis vector i);
    their sum is |G| times the projector onto the fixed subspace.
    """
    mats = list(matrices)
    return rank([[sum(m[i][j] for m in mats) for j in range(dim)] for i in range(dim)])
