"""Spaces of ideals, weighted joins, saturation, completeness.

The members of a given ideal class form a Q-ordered set of their own
under the inclusion degree, with the base embedded by principal lower
sets.  Weighted joins are suprema in that space; a class is saturated
when weighted joins of class weights land back in the class.
"""

from __future__ import annotations

from ._value import Value
from .errors import BaseMismatch, NotLower, _charge
from .fuzzy import FuzzySet, _lower_violation, _sub_idx, _tensor_idx, suprema
from .ideals import enumerate_ideals, ideal_class_tag
from .qorder import QMap, QOrderedSet


class IdealSpace(Value, fields="base class_tag carrier space yoneda_map positions",
                 hidden="positions", uncompared="positions"):
    """All class ideals of a base ordered by inclusion degree.

    Carrier labels are phi0, phi1, ... in enumeration order.  The
    principal-ideal embedding of the base is kept as a map; building the
    space rechecks that it is fully faithful.  positions maps each
    member's value tuple to its carrier index.
    """

    def __init__(self, base, class_tag, carrier, space, yoneda_map, positions):
        self.base, self.class_tag, self.carrier, self.space, self.yoneda_map, self.positions = \
            base, class_tag, carrier, space, yoneda_map, positions

    @property
    def n(self):
        return len(self.carrier)

    def index_of(self, phi):
        vals = phi.values if isinstance(phi, FuzzySet) else tuple(phi)
        return self.positions[vals]

    def contains(self, phi):
        vals = phi.values if isinstance(phi, FuzzySet) else tuple(phi)
        return vals in self.positions

    def member_label(self, phi):
        return self.space.elements[self.index_of(phi)]


def ideal_space(A, which="flat", budget=None):
    """Build the ideal space of A for the named class (fc, flat,
    irreducible, or lower for every lower set).  Its hom table, n table
    lookups per pair of members, is charged before it is built."""
    tag = ideal_class_tag(which)
    carrier = enumerate_ideals(A, tag, budget=budget)
    _charge(len(carrier) ** 2 * A.n, budget, "ideal-space hom lookups")
    labels = tuple(f"phi{i}" for i in range(len(carrier)))
    hom = tuple(tuple(_sub_idx(A, p.values, r.values) for r in carrier)
                for p in carrier)
    space = QOrderedSet(A.quantale, labels, hom,
                        catalog=("ideal_space", {"class": tag}))
    pos = {p.values: i for i, p in enumerate(carrier)}
    mapping = []
    for a in range(A.n):
        yv = tuple(A.hom[i][a] for i in range(A.n))
        i = pos.get(yv)
        if i is None:
            raise RuntimeError(
                f"principal lower set at {A.elements[a]} missing "
                f"from the {tag} carrier")
        mapping.append(i)
    for a in range(A.n):
        for b in range(A.n):
            if hom[mapping[a]][mapping[b]] != A.hom[a][b]:
                raise RuntimeError(
                    "principal-ideal embedding is not fully faithful")
    return IdealSpace(A, tag, carrier, space, QMap(A, space, tuple(mapping)), pos)


def weighted_join(S, lam):
    """x -> join over members of lam(phi) & phi(x).

    This is the supremum of lam taken in the space of all lower sets of
    the base; the defining identity sub(join, psi) = sub(lam, y(psi)) is
    rechecked against every member and any failure is an internal error.
    """
    if lam.base != S.space:
        raise BaseMismatch("weight does not live on the ideal space")
    w = _lower_violation(S.space, lam.values)
    if w is not None:
        lab = S.space.elements.__getitem__
        raise NotLower("weights must be fuzzy lower sets of the ideal space",
                       witness=(lab(w[0]), lab(w[1])))
    A = S.base
    # the join at x pairs lam with the members' values at x, a column of
    # their table; the identity at member j pairs lam with S(-, j)
    vals = tuple(_tensor_idx(A, lam.values, col)
                 for col in zip(*(p.values for p in S.carrier)))
    for p, col in zip(S.carrier, zip(*S.space.hom)):
        if _sub_idx(A, vals, p.values) != _sub_idx(A, lam.values, col):
            raise RuntimeError("weighted join failed its supremum identity")
    return FuzzySet(A, vals)


def check_saturation(A, which="flat", budget=None):
    """Weighted joins of class weights over the ideal space must land
    back in the class; reports every weight that escapes.  Each weighted
    join reads n values per member and its recheck |S| more, and all of
    them are charged before the first join."""
    tag = ideal_class_tag(which)
    S = ideal_space(A, tag, budget=budget)
    weights = enumerate_ideals(S.space, tag, budget=budget)
    _charge(len(weights) * S.n * (S.n + A.n), budget, "weighted-join lookups")
    violations = []
    for lam in weights:
        w = weighted_join(S, lam)
        if not S.contains(w):
            violations.append({"weight": lam.as_dict(), "join": w.as_dict()})
    return {"class": tag, "carrier_size": S.n,
            "weights_checked": len(weights),
            "saturated": not violations, "violations": violations}


def check_completeness_continuity(A, which="flat", budget=None):
    """complete: every class ideal has a supremum in the base.
    continuous: additionally, taking suprema has a left adjoint into the
    ideal space.  The adjunction identity fixes each image on its own,
    so the adjoint search runs element by element over the members; its
    |S| lookups per (point, member) pair are charged before it starts."""
    tag = ideal_class_tag(which)
    S = ideal_space(A, tag, budget=budget)
    report = {"class": tag, "space": S, "witnesses": {},
              "sup": None, "adjoint": None}
    sup_idx = []
    for p in S.carrier:
        sups = suprema(p)
        if not sups:
            report.update(complete=False, continuous=False,
                          witnesses={"no_supremum": p.as_dict()})
            return report
        sup_idx.append(A.index(sups[0]))
    report["sup"] = {S.space.elements[i]: A.elements[sup_idx[i]]
                     for i in range(S.n)}
    _charge(A.n * S.n ** 2, budget, "adjoint search lookups")
    adjoint = []
    for a in range(A.n):
        cand = None
        for t in range(S.n):
            if all(S.space.hom[t][i] == A.hom[a][sup_idx[i]]
                   for i in range(S.n)):
                cand = t
                break
        if cand is None:
            report.update(complete=True, continuous=False,
                          witnesses={"no_adjoint_at": A.elements[a]})
            return report
        adjoint.append(cand)
    report.update(complete=True, continuous=True,
                  adjoint=QMap(A, S.space, tuple(adjoint)))
    return report
