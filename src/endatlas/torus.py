"""Elements of the dual torus with exact torsion and free coordinates.

The dual group is adjoint, so a torus element is determined by its values on
the simple roots.  Each value splits as a root of unity, written additively as
a fraction in Q/Z with zeta_n corresponding to 1/n, plus a free part: a vector
of rational exponents over a fixed list of abstractly independent generators.

Evaluation runs on integers: each element builds, on first use, a view with
one common denominator D of its torsion values and one common denominator E
of its free exponents, and the numerators over them.  ``value_at`` is then
integer dot products, the torsion one reduced mod D, and only its result is
made into Fractions; ``trivial_at`` decides alpha(s) = 1 on the numerators
alone.  Comparing w.s with another element goes through ``weyl.carries``,
which cross-multiplies the numerators of both views and never inverts w.
The Fraction fields ``torsion`` and ``free`` stay the public representation,
so ``key()`` and serialization do not change.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InvalidInput


def _mod1(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


class TorusElement:
    __slots__ = ("torsion", "free", "_int")

    def __init__(self, torsion, free=None):
        torsion = tuple(_mod1(Fraction(t)) for t in torsion)
        n = len(torsion)
        if free is None:
            free = tuple(() for _ in range(n))
        else:
            free = tuple(tuple(Fraction(x) for x in f) for f in free)
            if len(free) != n:
                raise InvalidInput("free parts must match the rank")
            if len({len(f) for f in free}) > 1:
                raise InvalidInput("free parts must share one generator list")
        self.torsion = torsion
        self.free = free
        self._int = None

    @classmethod
    def _reduced(cls, torsion, free) -> "TorusElement":
        """An element from torsion Fractions already in [0, 1) and free parts
        already tuples of Fractions of one length; nothing is re-normalized."""
        self = object.__new__(cls)
        self.torsion = torsion
        self.free = free
        self._int = None
        return self

    @classmethod
    def identity(cls, rank: int) -> "TorusElement":
        return cls((Fraction(0),) * rank)

    @property
    def rank(self) -> int:
        return len(self.torsion)

    @property
    def n_generators(self) -> int:
        return len(self.free[0]) if self.free else 0

    def _integer_view(self):
        """(D, torsion numerators over D, E, per generator the free numerators over E)."""
        den = lcm(1, *(t.denominator for t in self.torsion))
        tnum = tuple(t.numerator * (den // t.denominator) for t in self.torsion)
        fden = lcm(1, *(x.denominator for f in self.free for x in f))
        fnum = tuple(
            tuple(x.numerator * (fden // x.denominator) for x in col)
            for col in zip(*self.free)
        )
        self._int = (den, tnum, fden, fnum)
        return self._int

    def value_at(self, root):
        """alpha(s) for a root in the Delta-basis: (torsion mod 1, free vector)."""
        den, tnum, fden, fnum = self._int or self._integer_view()
        t = Fraction(sum(map(mul, root, tnum)) % den, den)
        if not fnum:
            return t, ()
        return t, tuple(Fraction(sum(map(mul, root, col)), fden) for col in fnum)

    def trivial_at(self, root) -> bool:
        """Whether alpha(s) = 1 for a root in the Delta-basis, on integers."""
        den, tnum, _, fnum = self._int or self._integer_view()
        return not sum(map(mul, root, tnum)) % den and not any(sum(map(mul, root, c)) for c in fnum)

    def is_finite_order(self) -> bool:
        return all(not any(f) for f in self.free)

    def order(self) -> int:
        if not self.is_finite_order():
            raise InvalidInput("element has infinite order; reduce it first")
        return lcm(1, *(t.denominator for t in self.torsion))

    def is_identity(self) -> bool:
        return self.is_finite_order() and all(t == 0 for t in self.torsion)

    def key(self):
        return (self.torsion, self.free)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusElement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_finite_order():
            return f"TorusElement({[str(t) for t in self.torsion]})"
        free = [[str(x) for x in f] for f in self.free]
        return f"TorusElement({[str(t) for t in self.torsion]}, free={free})"
