"""Desk-scale local-global verification and counterexample search.

Every element of the finite model is a Frobenius for some place, so "almost
all places" is modeled by quantifying over all of them; the consistency flag
asserts that local equivalence everywhere forces global equivalence.  The
weaker hypotheses of the remark (restricted place families, elliptic places
only) are exercised by an explicit search that returns evidence or nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DEFAULT_WORK_CAP, InvalidInput
from .galois import GaloisModel, places
from .rootsys import RootSystem
from .endodata import EndoscopicDatum, equivalent, is_elliptic, localize
from .elliptic import brute_force_inventory


@dataclass
class LocalGlobalVerdict:
    datum1: EndoscopicDatum
    datum2: EndoscopicDatum
    local: list  # (Place, witness or None)
    global_witness: object

    @property
    def locally_equivalent_everywhere(self) -> bool:
        return all(w is not None for _, w in self.local)

    @property
    def globally_equivalent(self) -> bool:
        return self.global_witness is not None

    @property
    def consistent(self) -> bool:
        """Local equivalence everywhere forces global equivalence."""
        return self.globally_equivalent or not self.locally_equivalent_everywhere


def check_local_global(d1: EndoscopicDatum, d2: EndoscopicDatum) -> LocalGlobalVerdict:
    """Localize at every place, compare, and check the local-global direction."""
    if not d1.galois.same_model(d2.galois):
        raise InvalidInput("data live over different Galois models")
    local = [(v, equivalent(localize(d1, v), localize(d2, v))) for v in places(d1.galois)]
    return LocalGlobalVerdict(datum1=d1, datum2=d2, local=local, global_witness=equivalent(d1, d2))


@dataclass
class LocalGlobalReport:
    n_data: int
    n_pairs: int
    n_consistent: int
    falsifiers: list = field(default_factory=list)  # the inconsistent verdicts

    @property
    def ok(self) -> bool:
        return not self.falsifiers


def exhaustive_local_global(
    rs: RootSystem, galois: GaloisModel, order_bound: int, cap: int = DEFAULT_WORK_CAP
) -> LocalGlobalReport:
    """Consistency of every pair from the bounded inventory."""
    inventory = brute_force_inventory(rs, galois, order_bound, cap=cap)
    verdicts = [
        check_local_global(a, b) for i, a in enumerate(inventory) for b in inventory[i:]
    ]
    falsifiers = [v for v in verdicts if not v.consistent]
    return LocalGlobalReport(
        n_data=len(inventory),
        n_pairs=len(verdicts),
        n_consistent=len(verdicts) - len(falsifiers),
        falsifiers=falsifiers,
    )


@dataclass
class Certificate:
    datum1: EndoscopicDatum
    datum2: EndoscopicDatum
    place_family: list
    local_witnesses: list  # aligned with place_family


def counterexample_search(
    rs: RootSystem,
    galois: GaloisModel,
    place_subset,
    order_bound: int,
    remark_mode: bool = False,
    cap: int = DEFAULT_WORK_CAP,
):
    """Search the inventory for pairs locally equivalent on the given places
    but globally inequivalent; returns a Certificate or None.

    With ``remark_mode`` the pairs are compared at every place instead: they
    must be simultaneously elliptic or non-elliptic there, and equivalent
    wherever elliptic; the certificate lists the elliptic places.
    """
    all_places = places(galois)
    subset = list(place_subset)
    for v in subset:
        if v not in all_places:
            raise InvalidInput("place subset contains a place of another model")
    inventory = brute_force_inventory(rs, galois, order_bound, cap=cap)
    family = all_places if remark_mode else subset
    for i in range(len(inventory)):
        for j in range(i + 1, len(inventory)):
            d1, d2 = inventory[i], inventory[j]
            if equivalent(d1, d2) is not None:
                continue
            witnesses = []
            for v in family:
                l1, l2 = localize(d1, v), localize(d2, v)
                if remark_mode:
                    e1 = is_elliptic(l1)
                    if e1 != is_elliptic(l2):
                        break
                    if not e1:
                        continue
                w = equivalent(l1, l2)
                if w is None:
                    break
                witnesses.append((v, w))
            else:
                return Certificate(
                    datum1=d1,
                    datum2=d2,
                    place_family=[v for v, _ in witnesses],
                    local_witnesses=[w for _, w in witnesses],
                )
    return None
