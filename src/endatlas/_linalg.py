"""Exact linear algebra over Q and Z.

Everything in the package is lattice-level: vectors are tuples of ints (roots
in the simple-root basis) or Fractions.  Sizes are tiny (rank <= 8, at most a
few dozen vectors), so clarity beats asymptotics throughout.

The hot paths stay on integers: ``integer_gauss_jordan`` is a fraction-free
(Bareiss) elimination whose divisions are all exact, so it inverts unimodular
lattice maps and turns a base into one integer functional per coordinate
without making a single Fraction.  ``solve_in_basis`` is the Fraction solver
for the remaining callers.
"""

from __future__ import annotations

from fractions import Fraction

Vec = tuple


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def vec_neg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def vec_scale(c, x: Vec) -> Vec:
    return tuple(c * a for a in x)


def integer_gauss_jordan(rows, k):
    """Fraction-free (Bareiss) Gauss-Jordan elimination over Z on the first
    ``k`` columns of an integer matrix.

    Returns ``(d, out)`` with ``out = E . rows`` for an integer row operation E,
    where the first ``k`` columns of ``out`` are d * I_k stacked over zero rows
    and d is a k-by-k minor of ``rows`` up to sign.  Returns None when those
    columns are linearly dependent.  Every division is exact, because each
    entry is a minor of ``rows``.
    """
    m = [list(r) for r in rows]
    n = len(m)
    prev = 1
    for c in range(k):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return None
        m[c], m[pr] = m[pr], m[c]
        piv_row = m[c]
        pv = piv_row[c]
        for i in range(n):
            f = m[i][c]
            if i != c and (f or pv != prev):
                m[i] = [(pv * a - f * b) // prev for a, b in zip(m[i], piv_row)]
        prev = pv
    return prev, m


def solve_in_basis(basis, target):
    """Coordinates of ``target`` over Q in the given independent ``basis``.

    Returns a tuple of Fractions, or None when target is outside the span.
    """
    if not basis:
        return () if not any(target) else None
    n = len(target)
    k = len(basis)
    rows = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(n)]
    piv_cols: list[int] = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    if len(piv_cols) != k:
        raise ValueError("basis vectors are linearly dependent")
    for i in range(r, n):
        if rows[i][k] != 0:
            return None
    coords = [Fraction(0)] * k
    for i, c in enumerate(piv_cols):
        coords[c] = rows[i][k]
    return tuple(coords)


def rank(vectors) -> int:
    """Rank over Q of a list of vectors."""
    vectors = [v for v in vectors]
    if not vectors:
        return 0
    n = len(vectors[0])
    rows = [[Fraction(x) for x in v] for v in vectors]
    rk = 0
    for c in range(n):
        pr = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[rk], rows[pr] = rows[pr], rows[rk]
        pv = rows[rk][c]
        rows[rk] = [x / pv for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def matrix_rank(rows) -> int:
    return rank(list(rows))


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
    the average over the group is the projector onto the fixed subspace.
    """
    mats = list(matrices)
    g = len(mats)
    avg = [[Fraction(0)] * dim for _ in range(dim)]
    for m in mats:
        for i in range(dim):
            for j in range(dim):
                avg[i][j] += Fraction(m[i][j], g)
    return matrix_rank(avg)
