"""Scott-style open and closed fuzzy sets for an ideal class.

An upper set is open when its value at every supremum of a class ideal
equals its intersection degree with the ideal; a lower set is closed
when its value there equals the inclusion degree of the ideal into it.
The open sets form a topology-like family (constants, binary meets,
joins), the closed sets a cotopology-like family, and each membership
test quantifies over every supremum so non-separated bases are handled.
"""

from __future__ import annotations

from collections import namedtuple
from operator import getitem

from ._value import Value
from .errors import ValidationError, _charge
from .fuzzy import (
    FuzzySet,
    _fuzzy_sets,
    _lower_violation,
    _monotone_value_tuples,
    _sub_idx,
    _tensor_idx,
    _upper_violation,
    suprema,
    transport,
)
from .ideals import enumerate_ideals, ideal_class_tag

# what a mode decides: its canonical name, the kind of its member sets
# with their shape test and phrase, the degree of a member's supremum
# equation and its report key, the class it defaults to, its five axiom
# names, and the quantale tables of its closure and its scaling axioms
_Mode = namedtuple("_Mode", "name kind violation shape degree key default_class axioms "
                            "closures scalings")
_TOPOLOGY = _Mode("topology", "upper", _upper_violation, "an upper", _tensor_idx,
                  "tensor_degree", "flat", ("O1", "O2", "O3", "O4", "O5"),
                  ("meet_table", "join_table"), ("tensor_table", "res_table"))
_COTOPOLOGY = _Mode("cotopology", "lower", _lower_violation, "a lower", _sub_idx,
                    "sub_degree", "irreducible", ("C1", "C2", "C3", "C4", "C5"),
                    ("join_table", "meet_table"), ("res_table", "tensor_table"))
_MODES = {"topology": _TOPOLOGY, "top": _TOPOLOGY,
          "cotopology": _COTOPOLOGY, "cotop": _COTOPOLOGY}


def _mode(mode):
    """The _Mode that mode spells, in any case."""
    try:
        return _MODES[str(mode).lower()]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}; use topology or cotopology") from None


def _scott_context(A, tag, budget):
    """The class ideals of A that have a supremum and are not principal,
    with all their suprema (as indices), in enumeration order, built on
    each call: a caller that tests many sets builds it once.  A
    principal ideal y(a) = A(-, a), a column of the hom table, passes
    every test, so it is left out before its suprema are sought.  Only
    a principal ideal has a supremum s with phi(s) = 1: for a supremum
    s of phi, phi <= y(s) as sub(phi, y(s)) = A(s, s) = 1, and if
    phi(s) = 1 then phi >= phi(s) & y(s), so phi = y(s); and a is a
    supremum of y(a) by Yoneda.  An upper psi has sup_x A(x, s) & psi(x) = psi(s):
    the term x = s gives >=, upperness <=; a lower psi has inf_x A(x, s)
    -> psi(x) = psi(s).  Along an order-preserving f the forward image
    of y(s) is y(f(s)), whose suprema contain f(s).

    Three contexts are empty by proof and are not built.  Forward-Cauchy
    ideals are principal (ideals._forward_cauchy).  An irreducible phi
    with a supremum s has phi(s) = 1, so it is principal: on n points
    write phi = join_x phi(x) & y(x), a join of lower sets, and c_x =
    sub(phi, phi(x) & y(x)).  Irreducibility over this n-ary join gives
    join_x c_x = sub(phi, phi) = 1.  As c_x & phi(z) <= phi(x) for every
    z and phi is inhabited, c_x <= phi(x); and c_x <= sub(phi, y(x)) =
    A(s, x), as s is a supremum.  So c_y & c_y <= phi(y) & A(s, y) <=
    phi(s), phi being lower.  Now 1 = (join_x c_x)^(n+1) is the join of
    the products of n + 1 factors c_x; each repeats some c_y, so by
    integrality it is at most c_y & c_y <= phi(s).  Under double
    negation (neg a = a -> 0 and neg neg a = a) the flat ideals are the
    irreducible ones: tensor(phi, psi) = neg sub(phi, neg psi), neg (psi1
    ^ psi2) = neg psi1 v neg psi2, and neg maps the upper sets onto the
    lower sets, so the flat equation on (psi1, psi2) is the negation of
    the irreducible one on (neg psi1, neg psi2), and neg is injective.
    Only the lower class, and the flat class on a quantale without
    double negation (a Goedel chain), build a context."""
    if tag in ("fc", "irreducible") or tag == "flat" and A.quantale.has_double_negation:
        return ()
    principal = set(zip(*A.hom))
    out = []
    for p in enumerate_ideals(A, tag, budget=budget):
        if p.values not in principal:
            sups = tuple(map(A.index, suprema(p)))
            if sups:
                out.append((p.values, sups))
    return tuple(out)


def _member_violation(A, vals, mode, ctx):
    """The shape test of any value tuple, then _equation_violation."""
    w = mode.violation(A, vals)
    if w is None:
        return _equation_violation(A, vals, mode, ctx)
    return {"reason": f"not {mode.shape} set", "pair": (A.elements[w[0]], A.elements[w[1]])}


def _equation_violation(A, vals, mode, ctx):
    """The first (ideal, supremum) of ctx whose open (closed) equation
    the upper (lower) set vals misses, as a witness, or None."""
    q = A.quantale
    for ivals, sups in ctx:
        d = mode.degree(A, ivals, vals)
        for s in sups:
            if vals[s] != d:
                return {"reason": "misses the supremum equation",
                        "ideal": FuzzySet(A, ivals).as_dict(),
                        "supremum": A.elements[s],
                        "at_supremum": q.elements[vals[s]],
                        mode.key: q.elements[d]}
    return None


def is_scott_member(psi, mode, which=None, budget=None):
    """Membership of a fuzzy set in the open (mode topology) or closed
    (mode cotopology) family for the given ideal class.  The class
    defaults to flat for opens and irreducible for closeds.  Returns
    (flag, witness).  Each call builds the base's context and charges
    that work (none where it is empty by proof, see _scott_context), so
    to test many sets of one base, build the family once with
    generate_scott_structure."""
    mode = _mode(mode)
    tag = ideal_class_tag(which if which is not None else mode.default_class)
    ctx = _scott_context(psi.base, tag, budget)
    w = _member_violation(psi.base, psi.values, mode, ctx)
    return w is None, w


class ScottStructure(Value, fields="base mode class_tag members axioms stratified "
                     "co_stratified strong"):
    def __init__(self, base, mode, class_tag, members, axioms, stratified, co_stratified,
                 strong):
        self.base, self.mode, self.class_tag, self.members, self.axioms = \
            base, mode, class_tag, members, axioms
        self.stratified, self.co_stratified, self.strong = stratified, co_stratified, strong


def generate_scott_structure(A, mode, which=None, budget=None):
    """Filter every monotone fuzzy set by membership and compute the
    axiom flags of the resulting family.  The filter and the axiom
    checks each charge their work against the budget before they start
    (see _member_values and check_structure_axioms)."""
    mode = _mode(mode)
    tag = ideal_class_tag(which if which is not None else mode.default_class)
    members = _fuzzy_sets(A, _member_values(A, mode, tag, budget))
    axioms = _axiom_report(A, mode, members, budget)["flags"]
    stratified, co_stratified = (axioms[name] for name in mode.axioms[3:])
    return ScottStructure(A, mode.name, tag, members, axioms, stratified, co_stratified,
                          stratified and co_stratified)


def check_structure_axioms(S, budget=None):
    """Axiom flags for a member family, each with a witness on failure.

    Topology: O1 constants, O2 binary meets, O3 binary joins (and so
    every nonempty finite one), O4 tensoring by a constant, O5
    residuating by a constant.  Cotopology: C1 constants, C2 joins, C3
    meets, C4 residuating, C5 tensoring.

    The members S must be upper (lower) sets, or ValidationError names
    the first that is not.  When they are every upper (lower) set of the
    base, all five axioms hold and nothing is tested or charged.  For
    lower sets phi, psi (phi(y) & A(x, y) <= phi(x)) and a constant p:
    p & A(x, y) <= p by integrality; (phi ^ psi)(y) & A(x, y) <= phi(x)
    ^ psi(x) as & is monotone, and (phi v psi)(y) & A(x, y) <= phi(x) v
    psi(x) as & distributes over joins; p & phi is lower by
    associativity; and p & (p -> phi(y)) & A(x, y) <= phi(y) & A(x, y)
    <= phi(x), so p -> phi is lower.  Upper sets are the dual case.

    Otherwise the first constant that is not a member fails O1 (C1).
    Closure is tested on the member pairs i < j in member order, and the
    first whose meet (join) is not a member is the witness; scaling on
    each constant in order and, within it, each member in order.  Before
    any check runs, the m * (m - 1) member pairs and the |Q| * m
    scalings twice are charged.
    """
    return _axiom_report(S.base, _mode(S.mode), S.members, budget)


def _axiom_report(A, mode, members, budget):
    """check_structure_axioms on the base, mode and members of a family."""
    q = A.quantale
    vecs = [p.values for p in members]
    universe = set(_monotone_value_tuples(A, mode.kind, budget))
    for v in vecs:
        if v not in universe:
            raise ValidationError(f"member is not a fuzzy {mode.kind} set of the base",
                                  witness=FuzzySet(A, v).as_dict())
    have = set(vecs)
    if len(have) == len(universe):
        return {"flags": dict.fromkeys(mode.axioms, True), "witnesses": {}}
    m = len(vecs)
    _charge(m * (m - 1) + 2 * q.n * m, budget, "closure pairs and scalings")

    def closure_misses(table):
        for i, u in enumerate(vecs):
            rows = tuple(map(table.__getitem__, u))
            for v in vecs[i + 1:]:
                out = tuple(map(getitem, rows, v))
                if out not in have:
                    yield {"members": (FuzzySet(A, u).as_dict(), FuzzySet(A, v).as_dict()),
                           "result": FuzzySet(A, out).as_dict()}

    def scaling_misses(table):
        for p in range(q.n):
            for v in vecs:
                out = tuple(table[p][a] for a in v)
                if out not in have:
                    yield {"p": q.elements[p], "member": FuzzySet(A, v).as_dict(),
                           "result": FuzzySet(A, out).as_dict()}

    misses = (next(({"constant": q.elements[p]} for p in range(q.n)
                    if (p,) * A.n not in have), None),
              *(next(closure_misses(getattr(q, t)), None) for t in mode.closures),
              *(next(scaling_misses(getattr(q, t)), None) for t in mode.scalings))
    return {"flags": {name: w is None for name, w in zip(mode.axioms, misses)},
            "witnesses": {name: w for name, w in zip(mode.axioms, misses) if w is not None}}


def _member_values(B, mode, tag, budget):
    """Value tuples of the members of B's open (closed) family, in
    enumeration order.  Each upper (lower) set of the walk is tested on
    the equations of every ideal of the context; those (set, ideal)
    pairs are charged against the budget before any is tested."""
    ctx = _scott_context(B, tag, budget)
    sets = _monotone_value_tuples(B, mode.kind, budget)
    _charge(len(sets) * len(ctx), budget, "pairs checked")
    return tuple(vals for vals in sets
                 if _equation_violation(B, vals, mode, ctx) is None)


def cocontinuity_equivalence(f, which="irreducible", budget=None):
    """Two routes to the same judgment about a map, compared.

    cocontinuous: f preserves the order and sends every existing
    class-ideal supremum to a supremum of the image ideal.
    closed_preimage: composing every closed set of the target with f
    lands in the closed sets of the source.  Order preservation is NOT
    assumed for the second route; the equivalence is the claim under
    test, so the report carries both verdicts and their agreement.
    """
    A, B = f.source, f.target
    tag = ideal_class_tag(which)
    witnesses = {}
    cocontinuous = True
    w = f.order_violation()
    if w is not None:
        cocontinuous = False
        witnesses["order"] = w
    ctxA = _scott_context(A, tag, budget)
    if cocontinuous:
        for ivals, sups in ctxA:
            img = transport(f, FuzzySet(A, ivals), "forward")
            targets = set(suprema(img))
            bad = next((s for s in sups
                        if B.elements[f.mapping[s]] not in targets), None)
            if bad is not None:
                cocontinuous = False
                witnesses["sup_not_preserved"] = {
                    "ideal": FuzzySet(A, ivals).as_dict(),
                    "supremum": A.elements[bad],
                    "image_of_supremum": B.elements[f.mapping[bad]],
                    "suprema_of_image": [b for b in B.elements if b in targets],
                }
                break
    bad = _preimage_violation(f, _COTOPOLOGY, tag, ctxA, budget)
    if bad is not None:
        witnesses["preimage_not_closed"] = {"closed_set": bad[0],
                                            "violation": bad[1]}
    closed_preimage = bad is None
    return {"cocontinuous": cocontinuous, "closed_preimage": closed_preimage,
            "agree": cocontinuous == closed_preimage, "witnesses": witnesses}


def check_open_preimages(f, which="flat", budget=None):
    """One-directional continuity: composites of open sets of the target
    with a cocontinuous map must be open on the source.  Returns
    (flag, witness); callers are expected to have checked
    cocontinuity."""
    tag = ideal_class_tag(which)
    bad = _preimage_violation(f, _TOPOLOGY, tag, _scott_context(f.source, tag, budget),
                              budget)
    if bad is None:
        return True, None
    return False, {"open_set": bad[0], "violation": bad[1]}


def _preimage_violation(f, mode, tag, ctxA, budget):
    """The first member of the target's open (closed) family, by mode,
    whose composite with f is not open (closed) on the source, given
    the source's context ctxA: its label dict and the membership
    violation, or None."""
    for vals in _member_values(f.target, mode, tag, budget):
        pulled = tuple(vals[j] for j in f.mapping)
        v = _member_violation(f.source, pulled, mode, ctxA)
        if v is not None:
            return FuzzySet(f.target, vals).as_dict(), v
    return None
