"""Finite Galois models: a finite group with a diagram action, places as
conjugacy classes of cyclic subgroups, and cocycle enumeration.

Every construction in the theory factors through a finite quotient of the
absolute Galois group, so the model is always the finite image; "almost all
places" at this scale means all places, each place standing for the Frobenius
class of a decomposition subgroup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .errors import DEFAULT_WORK_CAP, CapExceeded, InternalConsistencyError, InvalidInput, is_integer
from .rootsys import RootSystem
from .weyl import DiagramAut, enumerate_delta_automorphisms


class GaloisModel:
    """Finite group with identity first, a Cayley table, and a diagram action."""

    def __init__(self, names, table, action, rs: RootSystem):
        self.names = tuple(str(x) for x in names)
        self.table = tuple(tuple(row) for row in table)
        self.rs = rs
        # action: per element, a DiagramAut fixing node 0 (the action on the
        # finite diagram, extended to the completed one).
        self.action = tuple(action)
        self._validate()

    def _validate(self):
        n = len(self.names)
        if len(set(self.names)) != n or n == 0:
            raise InvalidInput("element names must be nonempty and distinct")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise InvalidInput("multiplication table has wrong shape")
        if any(not is_integer(x) or x < 0 or x >= n for row in self.table for x in row):
            raise InvalidInput("multiplication table entries out of range")
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise InvalidInput("element 0 must be the identity")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise InvalidInput("multiplication table is not associative")
        for a in range(n):
            if not any(self.table[a][b] == 0 for b in range(n)):
                raise InvalidInput("an element has no inverse")
        if len(self.action) != n:
            raise InvalidInput("action must assign a diagram automorphism per element")
        # a diagram automorphism fixes slot 0 (the affine node of a simple
        # type, padding on a product), permutes 0..rank, preserves the matrix
        nodes, m = range(1, self.rs.rank + 1), self.rs.matrix
        for p in (aut.perm for aut in self.action):
            if len(p) != len(nodes) + 1 or set(p) != {0, *nodes} or p[0] != 0 or any(
                m[p[i] - 1][p[j] - 1] != m[i - 1][j - 1] for i in nodes for j in nodes
            ):
                raise InvalidInput("action values must be automorphisms of the diagram")
        if not self.action[0].is_identity():
            raise InvalidInput("identity must act trivially")
        if not self.is_homomorphism(self.action):
            raise InvalidInput("diagram action is not a homomorphism")

    def __len__(self):
        return len(self.names)

    def inv(self, a: int) -> int:
        return next(b for b in range(len(self)) if self.table[a][b] == 0)

    def phi(self, a: int) -> DiagramAut:
        return self.action[a]

    def phi_lattice(self, a: int):
        return self.action[a].lattice(self.rs)

    def words(self):
        """Generators and one word in them per element: ``(gens, word)``.

        Each generator is the least element outside the subgroup generated so
        far.  A breadth-first walk over right multiplication by the generators,
        resumed from every element reached whenever a generator is added,
        writes ``word[e]``: generators whose product, read left to right, is
        e.  The identity has the empty word.
        """
        gens, word = [], {0: ()}
        for a in range(len(self)):
            if a in word:
                continue
            gens.append(a)
            frontier = list(word)
            while frontier:
                nxt = []
                for x in frontier:
                    for g in gens:
                        y = self.table[x][g]
                        if y not in word:
                            word[y] = word[x] + (g,)
                            nxt.append(y)
                frontier = nxt
        return gens, word

    def is_homomorphism(self, values) -> bool:
        """Whether values[a . b] = values[a] * values[b] for all elements a, b."""
        n = len(self)
        return all(
            values[self.table[a][b]] == values[a] * values[b] for a in range(n) for b in range(n)
        )

    def homomorphisms(self, candidates, identity):
        """Every homomorphism f with f(a) in candidates[a] for each element a,
        in the order of the product of the generators' candidate lists: values
        are chosen on the generating set, extended along words and kept when
        they satisfy the table."""
        gens, words = self.words()
        allowed = [set(c) for c in candidates]
        for choice in product(*(candidates[g] for g in gens)):
            value = dict(zip(gens, choice))
            family = []
            for e in range(len(self)):
                cur = identity
                for g in words[e]:
                    cur = cur * value[g]
                family.append(cur)
            if self.is_homomorphism(family) and all(f in ok for f, ok in zip(family, allowed)):
                yield family

    def subgroup_elements(self, gen: int):
        out = [0]
        x = gen
        while x != 0:
            out.append(x)
            x = self.table[x][gen]
        return sorted(out)

    def conjugate(self, x: int, by: int) -> int:
        return self.table[self.table[by][x]][self.inv(by)]

    def key(self):
        return (self.names, self.table, tuple(a.perm for a in self.action))

    def same_model(self, other: "GaloisModel") -> bool:
        return self.rs is other.rs and self.key() == other.key()

    def __repr__(self):
        return f"GaloisModel({'/'.join(self.names)} on {self.rs!r})"


def _closure(gens):
    """The group of permutations g_1..g_k of one point set, composed as
    ``DiagramAut`` ((x.y)(i) = x(y(i))), as ``(elements, exponents, table)``:
    the products g_1^a_1 ... g_k^a_k, each once, with a_1 running fastest,
    their vectors (a_1..a_k), and ``table[x][y]`` the index of x.y.
    Precondition: each g_j normalizes the group of the ones before it."""

    def mul(x, y):
        return tuple(x[i] for i in y)

    elems, exps = [tuple(range(len(gens[0])))], [()]
    for g in gens:
        sub, sub_exps, members = list(elems), exps, set(elems)
        exps = [x + (0,) for x in sub_exps]
        a, power = 1, g
        while power not in members:
            elems += [mul(x, power) for x in sub]
            exps += [x + (a,) for x in sub_exps]
            a, power = a + 1, mul(power, g)
    index = {x: i for i, x in enumerate(elems)}
    return elems, exps, [[index[mul(x, y)] for y in elems] for x in elems]


def _cyclic(n: int):
    """Names and table of Z/n, the closure of one n-cycle."""
    names = ["e"] + [f"g{k}" if n > 2 else "g" for k in range(1, n)]
    return names, _closure([tuple(range(1, n)) + (0,)])[2]


def _s3():
    """Names, table and elements of S3 = Aut(D4), closed from the rotation r
    cycling a1, a3, a4 and the flip s swapping a3, a4; r^a s^b is named by
    its word, e for the empty one."""
    elems, exps, table = _closure([(0, 3, 2, 4, 1), (0, 1, 2, 4, 3)])
    return ["r" * a + "s" * b or "e" for a, b in exps], table, elems


def build_galois_model(spec, rs: RootSystem) -> GaloisModel:
    """Build a model from a preset name, "table:PATH", or an explicit table +
    action dict.

    Presets: "trivial", "cN:inner" (cyclic, trivial action), "c2:outer"
    (cyclic of order 2 through the diagram flip, where one exists),
    "c3:outer" (Z/3 into triality, D4 only), "s3" (S3 onto Aut(D4)). Every
    preset group is closed from generator permutations in a fixed element
    order, so its names and table never change.  "table:PATH" reads the
    dict from a JSON file.
    """
    if isinstance(spec, str) and spec.startswith("table:"):
        return load_galois_model(spec[len("table:"):], rs)
    if isinstance(spec, str):
        return _preset_model(spec, rs)
    if isinstance(spec, dict):
        return model_from_dict(spec, rs)
    raise InvalidInput("galois spec must be a preset name or a model dict")


def _preset_model(name: str, rs: RootSystem) -> GaloisModel:
    name = name.strip()
    if name == "trivial":
        return GaloisModel(["e"], [[0]], [DiagramAut.identity(rs.rank)], rs)
    if name == "s3":
        if not (rs.is_simple and str(rs.type) == "D4"):
            raise InvalidInput("preset 's3' needs type D4 (Aut of the diagram is S3 only there)")
        names, table, elems = _s3()
        return GaloisModel(names, table, [DiagramAut(x) for x in elems], rs)
    if ":" in name:
        base, variant = name.split(":", 1)
        if base.startswith("c") and base[1:].isdigit():
            n = int(base[1:])
            if n < 1:
                raise InvalidInput("cyclic preset needs order >= 1")
            if n**3 > DEFAULT_WORK_CAP:
                # the table has n^2 entries and its associativity check n^3 steps
                raise CapExceeded(f"cyclic preset of order {n} exceeds the work cap {DEFAULT_WORK_CAP}")
            names, table = _cyclic(n)
            if variant == "inner":
                return GaloisModel(names, table, [DiagramAut.identity(rs.rank)] * n, rs)
            if variant == "outer":
                # the powers of the first non-identity diagram automorphism,
                # in lexicographic order, whose closure has n elements
                closures = (
                    _closure([a.perm])[0] for a in enumerate_delta_automorphisms(rs) if not a.is_identity()
                )
                elems = next((c for c in closures if len(c) == n), None)
                if elems is None:
                    raise InvalidInput(
                        f"type {rs.type} admits no diagram automorphism of order {n}; "
                        f"the outer preset is incompatible with it"
                    )
                return GaloisModel(names, table, [DiagramAut(x) for x in elems], rs)
    raise InvalidInput(f"unknown galois preset {name!r}")


def model_from_dict(data: dict, rs: RootSystem) -> GaloisModel:
    try:
        names, table = data["elements"], data["table"]
        action_spec = dict(data.get("action", {}))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidInput(f"malformed galois model: {exc}") from exc
    # a string would iterate as its characters
    if not isinstance(names, list) or not (
        isinstance(table, list) and all(isinstance(r, list) for r in table)
    ):
        raise InvalidInput("galois model: elements must be a list, table a list of lists")
    n = len(names)
    if n**3 > DEFAULT_WORK_CAP:
        # the associativity check of the table takes n^3 steps
        raise CapExceeded(f"galois table of order {n} exceeds the work cap {DEFAULT_WORK_CAP}")
    unknown = sorted(str(k) for k in set(action_spec) - {str(nm) for nm in names})
    if unknown:
        raise InvalidInput(f"action names unknown elements {unknown}")
    action = []
    for nm in names:
        perm = action_spec.get(str(nm))
        if perm is None:
            action.append(DiagramAut.identity(rs.rank))
        else:
            ints = isinstance(perm, (list, tuple)) and all(is_integer(x) for x in perm)
            if not ints or sorted(perm) != list(range(1, rs.rank + 1)):
                raise InvalidInput(
                    f"action for {nm!r} must permute the simple nodes 1..{rs.rank}"
                )
            action.append(DiagramAut((0,) + tuple(perm)))
    return GaloisModel(names, table, action, rs)


def model_to_dict(model: GaloisModel) -> dict:
    action = {}
    for nm, aut in zip(model.names, model.action):
        if not aut.is_identity():
            action[nm] = list(aut.perm[1:])
    return {
        "elements": list(model.names),
        "table": [list(r) for r in model.table],
        "action": action,
    }


def read_json(path: str):
    """The JSON document in a file; a malformed one is an input error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InvalidInput(f"not valid JSON: {exc}") from exc


def load_galois_model(path: str, rs: RootSystem) -> GaloisModel:
    return model_from_dict(read_json(path), rs)


# -- places --------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A Frobenius class: a cyclic decomposition subgroup up to conjugacy."""

    model_key: tuple
    generator: int
    subgroup: tuple

    def name(self, model: GaloisModel) -> str:
        return f"<{model.names[self.generator]}>"


def places(model: GaloisModel):
    """One place per conjugacy class of cyclic subgroups, every element covered."""
    n = len(model)
    subs = {}
    for g in range(n):
        h = tuple(model.subgroup_elements(g))
        subs.setdefault(h, []).append(g)
    classes = []
    seen = set()
    for h in sorted(subs, key=lambda h: (len(h), h)):
        if h in seen:
            continue
        orbit = set()
        for x in range(n):
            conj = tuple(sorted(model.conjugate(e, x) for e in h))
            orbit.add(conj)
        seen |= orbit
        gen = min(g for hh in orbit if hh in subs for g in subs[hh])
        canonical = tuple(model.subgroup_elements(gen))
        classes.append(Place(model.key(), gen, canonical))
    for g in range(n):
        if not any(
            tuple(sorted(model.conjugate(e, x) for e in model.subgroup_elements(g)))
            == p.subgroup
            for p in classes
            for x in range(n)
        ):
            raise InternalConsistencyError("an element generates no listed place")
    return classes


def restrict_model(model: GaloisModel, elements) -> tuple[GaloisModel, list[int]]:
    """Submodel on the given closed element set; returns (model, index map)."""
    elems = sorted(set(elements))
    if 0 not in elems:
        raise InvalidInput("a subgroup must contain the identity")
    pos = {e: i for i, e in enumerate(elems)}
    for a in elems:
        for b in elems:
            if model.table[a][b] not in pos:
                raise InvalidInput("element set is not closed under multiplication")
    names = [model.names[e] for e in elems]
    table = [[pos[model.table[a][b]] for b in elems] for a in elems]
    action = [model.action[e] for e in elems]
    return GaloisModel(names, table, action, model.rs), elems


# -- cocycles ------------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle:
    """A 1-cocycle on the model with values in Omega (as diagram automorphisms)."""

    values: tuple  # DiagramAut per element index

    def value(self, a: int) -> DiagramAut:
        return self.values[a]

    def sigma_prime(self, model: GaloisModel, a: int) -> DiagramAut:
        """The composite automorphism value(a) . phi(a) of the completed diagram."""
        return self.values[a].compose(model.phi(a))

    def key(self):
        return tuple(v.perm for v in self.values)


def enumerate_cocycles(model: GaloisModel, omega_elements) -> list[Cocycle]:
    """All maps c with c(st) = c(s) . phi(s) c(t) phi(s)^{-1}, i.e. exactly those
    for which sigma -> c(sigma) phi(sigma) is a homomorphism into Aut(D_a)."""
    omega_auts = [om.aut for om in omega_elements]
    n = len(model)
    cands = [[w * model.phi(a) for w in omega_auts] for a in range(n)]
    found = (
        Cocycle(tuple(sp[a] * model.phi(a).inverse() for a in range(n)))
        for sp in model.homomorphisms(cands, DiagramAut.identity(model.rs.rank))
    )
    return sorted(found, key=Cocycle.key)
