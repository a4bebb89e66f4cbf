"""Ideal classes on finite bases: flat, irreducible, forward Cauchy.

All three are properties of inhabited fuzzy lower sets.  Flat means
tensoring with the set distributes over binary meets of upper sets;
irreducible means the inclusion degree distributes over binary joins of
lower sets; forward Cauchy means the set is generated by a sequence
whose terms eventually dominate each other.  On a finite base the last
one collapses to a pointwise condition, which is what the decider uses;
sequence generation is kept as an independent second route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    NotForwardCauchy,
    ShapeMismatch,
    ValidationError,
)
from .fuzzy import (
    DEFAULT_BUDGET,
    FuzzySet,
    _inhabited,
    _lower_violation,
    _monotone_value_tuples,
    _sub_idx,
    _tensor_idx,
    enumerate_monotone_sets,
)

_CLASS_ALIASES = {
    "fc": "fc",
    "forward-cauchy": "fc",
    "forward_cauchy": "fc",
    "cauchy": "fc",
    "flat": "flat",
    "irr": "irreducible",
    "irreducible": "irreducible",
    "lower": "lower",
    "all": "lower",
}


def ideal_class_tag(name):
    """Canonical class tag: fc, flat, irreducible, or lower."""
    try:
        return _CLASS_ALIASES[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown ideal class {name!r}; use fc, flat, irreducible or lower"
        ) from None


@dataclass(frozen=True)
class EventuallyPeriodicSequence:
    """The infinite sequence prefix . cycle^omega, held as carrier indices."""

    base: object
    prefix: tuple
    cycle: tuple

    def term(self, k):
        if k < len(self.prefix):
            return self.base.elements[self.prefix[k]]
        off = (k - len(self.prefix)) % len(self.cycle)
        return self.base.elements[self.cycle[off]]

    def describe(self):
        lab = self.base.elements.__getitem__
        return {"prefix": tuple(lab(i) for i in self.prefix),
                "cycle": tuple(lab(i) for i in self.cycle)}


def periodic_sequence(base, cycle, prefix=()):
    cyc = tuple(base.index(e) for e in cycle)
    if not cyc:
        raise ShapeMismatch("cycle must be nonempty")
    pre = tuple(base.index(e) for e in prefix)
    return EventuallyPeriodicSequence(base, pre, cyc)


def settling_violation(s):
    """First cycle position pair (u, v) whose hom degree stays below the
    unit, or None.  Every ordered pair of cycle terms recurs in every
    tail, so the sequence settles iff all such degrees are the unit."""
    A, q = s.base, s.base.quantale
    for u, cu in enumerate(s.cycle):
        for v, cv in enumerate(s.cycle):
            if A.hom[cu][cv] != q.unit:
                return (u, v)
    return None


def is_forward_cauchy_sequence(s):
    return settling_violation(s) is None


def ideal_from_sequence(s):
    """The lower set generated by the sequence: join over tail starts of
    the meet of principal lower sets at the tail terms.  Tails stabilize
    once the prefix is consumed, so this is the meet over the cycle."""
    A, q = s.base, s.base.quantale
    w = settling_violation(s)
    if w is not None:
        u, v = w
        cu, cv = s.cycle[u], s.cycle[v]
        raise NotForwardCauchy(
            "sequence does not settle",
            witness=(u, v),
            detail=(f"cycle terms {A.elements[cu]} and {A.elements[cv]} keep "
                    f"hom degree {q.elements[A.hom[cu][cv]]} in every tail"))
    vals = tuple(q.meet_all(A.hom[x][c] for c in s.cycle) for x in range(A.n))
    return FuzzySet(A, vals)


def _ideal_precondition(phi):
    """None when phi is lower and inhabited, else a reason dict."""
    A = phi.base
    w = _lower_violation(A, phi.values)
    if w is not None:
        return {"reason": "not a lower set",
                "pair": (A.elements[w[0]], A.elements[w[1]])}
    if not _inhabited(A, phi.values):
        q = A.quantale
        return {"reason": "not inhabited",
                "join_of_values": q.elements[q.join_all(phi.values)]}
    return None


def _as_label_dict(A, vec):
    lab = A.quantale.elements.__getitem__
    return {e: lab(v) for e, v in zip(A.elements, vec)}


def _enumeration_guard(A, budget):
    count = A.quantale.n ** A.n
    if count > budget:
        raise BudgetExceeded(count, budget, what="fuzzy-set enumeration")


def is_flat(phi, method="auto", budget=None):
    """Decide whether tensoring with phi distributes over binary meets of
    upper sets.  Returns (flag, witness); a failure witness carries the
    two upper sets and both sides of the broken equation.

    method brute checks every upper-set pair; shortcut is the
    one-quantifier test available when tensor is meet; auto picks for
    you.  Both produce witnesses that recompute to strict violations of
    the pair form.
    """
    pre = _ideal_precondition(phi)
    if pre is not None:
        return False, pre
    budget = DEFAULT_BUDGET if budget is None else budget
    if method == "auto":
        method = "shortcut" if phi.base.quantale.is_frame else "brute"
    if method == "shortcut":
        if not phi.base.quantale.is_frame:
            raise ValidationError("meet shortcut needs an idempotent tensor",
                                  detail="tensor table differs from meet table")
        return _flat_shortcut(phi)
    if method != "brute":
        raise ValueError(f"unknown method {method!r}")
    return _flat_brute(phi, budget)


def _flat_witness(A, v1, v2, lhs, rhs):
    lab = A.quantale.elements.__getitem__
    return {"psi1": _as_label_dict(A, v1), "psi2": _as_label_dict(A, v2),
            "tensor_with_meet": lab(lhs), "meet_of_tensors": lab(rhs)}


def _flat_brute(phi, budget):
    A, q = phi.base, phi.base.quantale
    _enumeration_guard(A, budget)
    uppers = _monotone_value_tuples(A, "upper", budget)
    m = len(uppers)
    pairs = m * (m + 1) // 2
    if pairs > budget:
        raise BudgetExceeded(pairs, budget, what="upper-set pairs")
    pos = {vec: k for k, vec in enumerate(uppers)}
    mt = q.meet_table
    t = [_tensor_idx(A, phi.values, vec) for vec in uppers]
    for i in range(m):
        vi, ti = uppers[i], t[i]
        for j in range(i, m):
            vj = uppers[j]
            k = pos[tuple(mt[a][b] for a, b in zip(vi, vj))]
            rhs = mt[ti][t[j]]
            if t[k] != rhs:
                return False, _flat_witness(A, vi, vj, t[k], rhs)
    return True, None


def _flat_shortcut(phi):
    # phi(x) ^ phi(y) <= join_z phi(z) ^ A(x,z) ^ A(y,z); a failing pair
    # converts into the principal upper sets A(x,-), A(y,-), which break
    # the pair form strictly.
    A, q = phi.base, phi.base.quantale
    vals = phi.values
    mt = q.meet_table
    for x in range(A.n):
        for y in range(A.n):
            lhs = mt[vals[x]][vals[y]]
            rhs = q.join_all(mt[vals[z]][mt[A.hom[x][z]][A.hom[y][z]]]
                             for z in range(A.n))
            if not q.leq[lhs][rhs]:
                v1 = tuple(A.hom[x][z] for z in range(A.n))
                v2 = tuple(A.hom[y][z] for z in range(A.n))
                tm = _tensor_idx(A, vals,
                                 tuple(mt[a][b] for a, b in zip(v1, v2)))
                both = mt[_tensor_idx(A, vals, v1)][_tensor_idx(A, vals, v2)]
                return False, _flat_witness(A, v1, v2, tm, both)
    return True, None


def is_irreducible(phi, budget=None):
    """Decide whether the inclusion degree out of phi distributes over
    binary joins of lower sets.  Returns (flag, witness)."""
    pre = _ideal_precondition(phi)
    if pre is not None:
        return False, pre
    A, q = phi.base, phi.base.quantale
    budget = DEFAULT_BUDGET if budget is None else budget
    _enumeration_guard(A, budget)
    lowers = _monotone_value_tuples(A, "lower", budget)
    m = len(lowers)
    pairs = m * (m + 1) // 2
    if pairs > budget:
        raise BudgetExceeded(pairs, budget, what="lower-set pairs")
    pos = {vec: k for k, vec in enumerate(lowers)}
    jt = q.join_table
    s = [_sub_idx(A, phi.values, vec) for vec in lowers]
    lab = q.elements.__getitem__
    for i in range(m):
        vi, si = lowers[i], s[i]
        for j in range(i, m):
            vj = lowers[j]
            k = pos[tuple(jt[a][b] for a, b in zip(vi, vj))]
            rhs = jt[si][s[j]]
            if s[k] != rhs:
                return False, {"phi1": _as_label_dict(A, vi),
                               "phi2": _as_label_dict(A, vj),
                               "sub_of_join": lab(s[k]),
                               "join_of_subs": lab(rhs)}
    return True, None


def is_forward_cauchy(phi):
    """Pointwise decision, valid on finite bases: lower, inhabited, and
    every two points admit a third with full membership whose hom degrees
    dominate theirs.  Returns (flag, witness)."""
    pre = _ideal_precondition(phi)
    if pre is not None:
        return False, pre
    A, q = phi.base, phi.base.quantale
    vals = phi.values
    tops = [z for z in range(A.n) if vals[z] == q.unit]
    for x in range(A.n):
        vx = vals[x]
        for y in range(A.n):
            vy = vals[y]
            if not any(q.leq[vx][A.hom[x][z]] and q.leq[vy][A.hom[y][z]]
                       for z in tops):
                return False, {"pair": (A.elements[x], A.elements[y])}
    return True, None


@dataclass
class IdealReport:
    inhabited: bool
    flat: bool
    irreducible: bool
    forward_cauchy: bool
    witnesses: dict

    def flags(self):
        return (self.inhabited, self.flat, self.irreducible,
                self.forward_cauchy)


def classify_ideal(phi, method="auto", budget=None):
    """All three deciders plus inhabitedness; every false flag keeps its
    witness under its own key."""
    inhabited = _inhabited(phi.base, phi.values)
    flat, wf = is_flat(phi, method=method, budget=budget)
    irr, wi = is_irreducible(phi, budget=budget)
    fc, wc = is_forward_cauchy(phi)
    witnesses = {}
    if wf is not None:
        witnesses["flat"] = wf
    if wi is not None:
        witnesses["irreducible"] = wi
    if wc is not None:
        witnesses["forward_cauchy"] = wc
    return IdealReport(inhabited, flat, irr, fc, witnesses)


def enumerate_ideals(A, which="fc", method="auto", budget=None):
    """All lower sets of the named class, in enumeration order.  The
    lower tag skips the class filter (and the inhabitedness demand the
    three proper classes make)."""
    tag = ideal_class_tag(which)
    lowers = enumerate_monotone_sets(A, "lower", budget=budget)
    if tag == "lower":
        return lowers
    if tag == "fc":
        return tuple(p for p in lowers if is_forward_cauchy(p)[0])
    if tag == "flat":
        return tuple(p for p in lowers
                     if is_flat(p, method=method, budget=budget)[0])
    return tuple(p for p in lowers if is_irreducible(p, budget=budget)[0])


def sequence_generated_ideals(A, bound=4):
    """Distinct ideals produced by every settling eventually periodic
    sequence whose prefix plus one period has at most bound terms."""
    seen = {}
    for total in range(1, bound + 1):
        for cut in range(total):
            for pre in itertools.product(range(A.n), repeat=cut):
                for cyc in itertools.product(range(A.n), repeat=total - cut):
                    s = EventuallyPeriodicSequence(A, pre, cyc)
                    if settling_violation(s) is not None:
                        continue
                    phi = ideal_from_sequence(s)
                    seen.setdefault(phi.values, phi)
    return tuple(seen[k] for k in sorted(seen))


def compare_fc_routes(A, bound=4, budget=None):
    """Cross-check the pointwise decider against sequence generation.

    The decider quantifies over arbitrary generating nets, the second
    route only over eventually periodic sequences, so a gap here is a
    finding to report, not an internal error.
    """
    decided = {phi.values for phi in enumerate_ideals(A, "fc", budget=budget)}
    generated = {phi.values for phi in sequence_generated_ideals(A, bound)}
    return {
        "agree": decided == generated,
        "decider_count": len(decided),
        "sequence_count": len(generated),
        "only_decider": [_as_label_dict(A, v)
                         for v in sorted(decided - generated)],
        "only_sequence": [_as_label_dict(A, v)
                          for v in sorted(generated - decided)],
    }


_STRICT_PROBE = 2.0 ** -48


def irreducible_interval_ideal(q, which, a, strict=False):
    """Closed-form ideal families on the interval orders.

    which dL: x -> res(x, a); the strict variant is the join over b < a
    (needs a > 0).  which dR: x -> res(a, x); strict joins over b > a
    (needs a < 1).  Strict joins are evaluated by a probe 2**-48 inside
    the open side, well under sampling tolerances.
    """
    if getattr(q, "kind", None) != "interval":
        raise ShapeMismatch("interval families need an interval quantale")
    if not 0.0 <= a <= 1.0:
        raise ShapeMismatch(f"family parameter {a} lies outside [0, 1]")
    if which == "dL":
        if not strict:
            return lambda x: q.residuate(x, a)
        if a <= 0.0:
            raise ShapeMismatch("the strict family on dL needs a > 0")
        b = a - _STRICT_PROBE
        return lambda x: q.residuate(x, b)
    if which == "dR":
        if not strict:
            return lambda x: q.residuate(a, x)
        if a >= 1.0:
            raise ShapeMismatch("the strict family on dR needs a < 1")
        b = a + _STRICT_PROBE
        return lambda x: q.residuate(b, x)
    raise ValueError(f"unknown interval order tag {which!r}")


def approach_terms(a, side, count=48):
    """Monotone terms closing the gap to a by halves; the stand-in
    sequences behind the strict interval families."""
    if side == "below":
        return tuple(a - a * 0.5 ** k for k in range(1, count + 1))
    if side == "above":
        return tuple(a + (1.0 - a) * 0.5 ** k for k in range(1, count + 1))
    raise ValueError(f"unknown side {side!r}")


def generate_interval_ideal(order, terms):
    """The lower set generated by a finite run of terms on an interval
    order: join over tail starts of the meet over the tail.  A finite
    stand-in for the limit; callers pick terms that settle within their
    tolerance."""
    terms = tuple(float(t) for t in terms)
    if not terms:
        raise ShapeMismatch("need at least one sequence term")

    def phi(x):
        tail, best = 1.0, 0.0
        for t in reversed(terms):
            tail = min(tail, order.hom(x, t))
            best = max(best, tail)
        return best

    return phi
