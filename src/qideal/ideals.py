"""Ideal classes on finite bases: flat, irreducible, forward Cauchy.

All three are properties of inhabited fuzzy lower sets.  Flat means
tensoring with the set distributes over binary meets of upper sets;
irreducible means the inclusion degree distributes over binary joins of
lower sets; forward Cauchy means the set is generated by a sequence
whose terms eventually dominate each other.  On a finite base the last
one collapses to a pointwise condition, which is what the decider uses,
and the sets it accepts are exactly the principal ones, which is how
they are enumerated (_forward_cauchy).

There are two public deciders: classify_ideal decides all three
classes for one set, with a witness for each false flag, and
enumerate_ideals lists the sets of one class on a base.
"""

from __future__ import annotations

from operator import getitem

from ._value import Frozen, Value
from .errors import NotForwardCauchy, ShapeMismatch, _charge
from .fuzzy import (
    FuzzySet,
    _fuzzy_sets,
    _inhabited,
    _lower_violation,
    _monotone_value_tuples,
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


class EventuallyPeriodicSequence(Frozen, fields="base prefix cycle"):
    """The infinite sequence prefix . cycle^omega, held as carrier indices."""

    def __init__(self, base, prefix, cycle):
        self._init(base, prefix, cycle)

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


def _first_break(A, kind, vals):
    """The generator decider for A's lower sets (kind lower,
    irreducible) or upper sets (kind upper, flat) on the inhabited lower
    set phi with value tuple vals: None when phi passes every threshold,
    else (k, cells, i).  k is the first failing threshold's position in
    A.quantale.prime_tables, cells are its generator cells in point and
    then value order, and i is the position of the row that first takes
    the running fold of their rows out.  Needs a distributive lattice.

    Irreducible: with s(psi) = sub(phi, psi), a meet-irreducible u is
    meet-prime, so s(psi) <= u iff phi(y) -> psi(y) <= u at some y, iff
    psi(y) <= w for a maximal such w: a generator of phi(y) at u, and
    (y, w) a cell of u.  The largest lower set with psi(y) <= w is the
    row M[y][w](x) = A(y,x) -> w (psi(x) & A(y,x) <= psi(y) and
    residuation; it is lower by transitivity and takes w at y, as A(y,y)
    is the unit).  So G_u = {psi : s(psi) <= u} is the union of the
    principal down-sets of the rows of its cells: a lower set J lies in
    G_u iff some cell (y, w) has J(y) <= w.  Every element is the meet
    of the meet-irreducibles above it, so the threshold test of
    _irreducible needs only these u.  Flat is the dual: join-irreducible
    thresholds j, the minimal b with j <= phi(y) & b, rows N[y][b](x) =
    b & A(y,x) (the smallest upper set with psi(y) >= b), pointwise
    meets, and K(y) >= b.

    The break: with r_0, r_1, ... the rows of the cells in order, the
    running join J_i = r_0 v ... v r_i has J_i(y) <= w iff each of r_0,
    ..., r_i does, so J_i lies in G_u iff some cell survives rows 0..i.
    The scan records die(c), the position of the first row that pushes
    the cell c out, where the test of c stops.  A cell that no row
    pushes out keeps the join of all the rows in G_u: the threshold
    passes.  If every cell dies, the fold first leaves G_u at i, the
    largest die(c); i >= 1, as the first cell (y, w) keeps its own row,
    r_0(y) = A(y,y) -> w = w.

    Every threshold has a cell, as phi is inhabited (its values join to
    1), and where some b qualifies an extreme one does.  Irreducible: the
    meet of the phi(y) -> 0 is 1 -> 0 = 0 <= u, and u is meet-prime, so
    phi(y) -> 0 <= u, and b = 0 qualifies, at some y.  Flat: j <= 1, the
    join of the phi(y), and j is join-prime, so j <= phi(y) & 1 at some y."""
    _, gens, table, keeps = getattr(A.quantale.prime_tables, kind)
    hom = A.hom
    # at_k[y]: the generators of phi(y) at threshold k
    for k, at_k in enumerate(zip(*map(gens.__getitem__, vals))):
        cells = [(y, w) for y, at in enumerate(at_k) for w in at]
        i = 0
        for y, w in cells:
            for die, (x, v) in enumerate(cells):
                if not keeps[table[hom[x][y]][v]][w]:
                    break
            else:
                break   # (y, w) survives every row
            if die > i:
                i = die
        else:
            return k, cells, i
    return None


def _route(A, kind, decisions, budget):
    """Charges that many flat (kind upper) or irreducible (kind lower)
    decisions on A, and returns the sets _break makes them over: None on
    a distributive lattice, n generator rows per threshold a decision;
    else A's m upper (lower) sets, |Q| * m * n set entries a decision."""
    primes = A.quantale.prime_tables
    if primes.distributive:
        _charge(decisions * len(getattr(primes, kind).thresholds) * A.n, budget,
                "generator rows joined")
        return None
    sets = _monotone_value_tuples(A, kind, budget)
    _charge(decisions * A.quantale.n * len(sets) * A.n, budget, "set entries folded")
    return sets


def _break(A, kind, vals, sets):
    """The decision behind _irreducible (kind lower) and _flat (kind
    upper) for the inhabited lower set with value tuple vals: None, or
    the first break (acc, psi, d(acc . psi), d(acc) . d(psi)) of a
    threshold's left-to-right fold of members, d and the fold as in
    their proofs.  With sets None the witness comes from the break that
    _first_break found (_row_break), and a decision that passes builds
    nothing.  Else each value in index order is a threshold, its members
    the sets whose degree passes it, and the fold tests d at every
    step."""
    if sets is None:
        hit = _first_break(A, kind, vals)
        return None if hit is None else _row_break(A, kind, vals, hit)
    q = A.quantale
    _, _, table, keeps = getattr(q.prime_tables, kind)
    fold, gather = ((q.join_table, q.meet_all) if kind == "lower"
                    else (q.meet_table, q.join_all))
    terms = [table[a] for a in vals]

    def d(vec):
        return gather(map(getitem, terms, vec))

    degrees = list(map(d, sets))
    for u in range(q.n):
        members = [v for v, e in zip(sets, degrees) if keeps[e][u]]
        acc = members[0] if members else None
        for psi in members[1:]:
            out = tuple(fold[a][b] for a, b in zip(acc, psi))
            e = d(out)
            if not keeps[e][u]:
                return acc, psi, e, fold[d(acc)][d(psi)]
            acc = out
    return None


def _row_break(A, kind, vals, hit):
    """The break of _first_break's hit (k, cells, i), read off the
    generator rows r_0, ..., r_i of the cells: acc is the fold of r_0,
    ..., r_(i-1), built in place, psi is r_i, and the degrees of acc,
    psi and their fold come from one pass over phi's values.  The row
    table is the degree's table too: a row of cell (y, w) takes
    table[A(y,x)][w] at x, and d(psi) gathers table[phi(x)][psi(x)],
    by meets (kind lower) or joins (kind upper), the other lattice
    operation than the fold's."""
    q = A.quantale
    table = getattr(q.prime_tables, kind).table
    fold, gather, d0 = ((q.join_table, q.meet_table, q.top) if kind == "lower"
                        else (q.meet_table, q.join_table, q.bottom))
    _, cells, i = hit
    hom = A.hom
    y, w = cells[0]
    acc = [table[h][w] for h in hom[y]]
    for y, w in cells[1:i]:
        for x, h in enumerate(hom[y]):
            acc[x] = fold[acc[x]][table[h][w]]
    y, w = cells[i]
    psi = [table[h][w] for h in hom[y]]
    d_acc = d_psi = d_out = d0
    for a, s, t in zip(vals, acc, psi):
        deg = table[a]
        d_acc = gather[d_acc][deg[s]]
        d_psi = gather[d_psi][deg[t]]
        d_out = gather[d_out][deg[fold[s][t]]]
    return acc, psi, d_out, fold[d_acc][d_psi]


def _threshold_verdict(phi, kind, budget, keys):
    """(flag, witness) of _break for one decision, charged before it is
    made; keys name the witness's two sets and two sides.  The two sets
    are the break's acc and psi, labelled point by point in the order of
    FuzzySet.as_dict, and the sides its two degrees."""
    A = phi.base
    hit = _break(A, kind, phi.values, _route(A, kind, 1, budget))
    if hit is None:
        return True, None
    v1, v2, lhs, rhs = hit
    points, labels = A.elements, A.quantale.elements
    return False, {keys[0]: dict(zip(points, map(labels.__getitem__, v1))),
                   keys[1]: dict(zip(points, map(labels.__getitem__, v2))),
                   keys[2]: labels[lhs], keys[3]: labels[rhs]}


def _flat(phi, budget):
    """Threshold decider for a lower, inhabited phi.  With t(psi) =
    tensor(phi, psi) on the upper sets (closed under pointwise meets)
    and F_r = {psi : t(psi) >= r}: t is monotone, so t(psi1 ^ psi2) <=
    t(psi1) ^ t(psi2) always, and phi is flat (equality for every pair)
    iff t(meet F_r) >= r for every inhabited F_r.  Only if: t then
    preserves inhabited finite meets.  If: for psi1, psi2 put r =
    t(psi1) ^ t(psi2); both lie in F_r, so t(psi1 ^ psi2) >= t(meet F_r)
    >= r.  On failure a left-to-right meet fold of F_r ends outside F_r;
    the member psi that first takes the running meet acc out has
    t(acc ^ psi) not >= r but t(acc) ^ t(psi) >= r: a strict violation.
    """
    return _threshold_verdict(phi, "upper", budget, ("psi1", "psi2", "tensor_with_meet",
                                                     "meet_of_tensors"))


def _irreducible(phi, budget):
    """Threshold decider for a lower, inhabited phi.  With s(psi) =
    sub(phi, psi) on the lower sets (closed under pointwise joins) and
    G_u = {psi : s(psi) <= u}: s is monotone, so s(psi1 v psi2) >=
    s(psi1) v s(psi2) always, and phi is irreducible (equality for every
    pair) iff s(join G_u) <= u for every inhabited G_u.  Only if: s then
    preserves inhabited finite joins.  If: for psi1, psi2 put u =
    s(psi1) v s(psi2); both lie in G_u, so s(psi1 v psi2) <= s(join G_u)
    <= u.  On failure a left-to-right join fold of G_u ends outside G_u;
    the member psi that first takes the running join acc out has
    s(acc v psi) not <= u but s(acc) v s(psi) <= u: a strict violation.
    """
    return _threshold_verdict(phi, "lower", budget, ("phi1", "phi2", "sub_of_join",
                                                     "join_of_subs"))


def _forward_cauchy(phi):
    """Pointwise decider for a lower, inhabited phi: every x and y admit
    a z with phi(z) = 1, phi(x) <= A(x,z) and phi(y) <= A(y,z); the
    first pair with none is the witness.  It accepts exactly the
    principal lower sets A(-, a).  Let T = {z : phi(z) = 1}; as phi is
    lower, A(x,z) <= phi(x) for z in T, and x = y gives a z in T with
    phi(x) <= A(x,z), so phi(x) is the largest A(x,z) over T.  For x, y
    in T the pair's z has A(x,z) = A(y,z) = 1, so T is directed in the
    crisp preorder A(x,z) = 1; being finite, it has a z* above all of
    it, A(x,z) <= A(x,z*) by transitivity, and phi = A(-, z*).
    Conversely A(-, a) passes with z = a, as A(a,a) = 1 (integrality).
    A settling periodic sequence has hom degree 1 between its cycle
    terms, so the meet over its cycle it generates is A(-, c) for any
    of them: sequence generation finds the same sets."""
    A, vals = phi.base, phi.values
    leq, unit = A.quantale.leq, A.quantale.unit
    tops = [z for z, v in enumerate(vals) if v == unit]
    # doms[x]: the z in T with phi(x) <= A(x,z), as a bitmask
    doms = []
    for row, v in zip(A.hom, vals):
        above, mask = leq[v], 0
        for z in tops:
            if above[row[z]]:
                mask |= 1 << z
        doms.append(mask)
    for x, dx in enumerate(doms):
        for y, dy in enumerate(doms):
            if not dx & dy:
                return False, {"pair": (A.elements[x], A.elements[y])}
    return True, None


class IdealReport(Value, fields="inhabited flat irreducible forward_cauchy witnesses"):
    def __init__(self, inhabited, flat, irreducible, forward_cauchy, witnesses):
        self.inhabited, self.flat, self.irreducible, self.forward_cauchy, self.witnesses = \
            inhabited, flat, irreducible, forward_cauchy, witnesses

    def flags(self):
        return (self.inhabited, self.flat, self.irreducible,
                self.forward_cauchy)


def classify_ideal(phi, budget=None):
    """All three deciders plus inhabitedness; every false flag keeps its
    witness under its own key, in the order flat, irreducible,
    forward_cauchy.  A set that is not lower and inhabited fails all
    three with the same reason, "not a lower set" with the first pair
    that breaks it, else "not inhabited" with the join of its values,
    and nothing is decided or charged.  A flat or irreducible witness is
    the break of _threshold_verdict: on a distributive lattice built
    from the generator rows up to the break that decided the flag, else
    from the fold over every set; a forward-Cauchy witness is the first
    pair with no common dominating point."""
    A = phi.base
    inhabited = _inhabited(A, phi.values)
    w = _lower_violation(A, phi.values)
    if w is not None:
        reason = {"reason": "not a lower set", "pair": (A.elements[w[0]], A.elements[w[1]])}
    elif not inhabited:
        q = A.quantale
        reason = {"reason": "not inhabited", "join_of_values": q.elements[q.join_all(phi.values)]}
    else:
        verdicts = {"flat": _flat(phi, budget), "irreducible": _irreducible(phi, budget),
                    "forward_cauchy": _forward_cauchy(phi)}
        return IdealReport(inhabited, *(flag for flag, _ in verdicts.values()),
                           {key: wit for key, (_, wit) in verdicts.items() if wit is not None})
    return IdealReport(inhabited, False, False, False,
                       dict.fromkeys(("flat", "irreducible", "forward_cauchy"), reason))


def _principal_rows(A):
    """The value tuples of the distinct principal lower sets A(-, a),
    the columns of the hom table, sorted as the walk emits them."""
    return sorted(set(zip(*A.hom)))


def enumerate_ideals(A, which="fc", budget=None):
    """All lower sets of the named class, in the walk's order: their
    value tuples sorted.  The lower tag skips the class filter (and the
    inhabitedness demand the three proper classes make).  Forward-Cauchy
    ideals are the principal ones (_forward_cauchy), read off the hom
    table with its n * n entries charged, and nothing is walked.  Flat
    and irreducible decide each inhabited lower set's flag, charged by
    _route before any set is decided: on a distributive lattice by the
    scan of _first_break alone, with no row built; else by _break over
    the upper (lower) sets."""
    tag = ideal_class_tag(which)
    if tag == "fc":
        _charge(A.n * A.n, budget, "hom entries read")
        return _fuzzy_sets(A, _principal_rows(A))
    lowers = _monotone_value_tuples(A, "lower", budget)
    if tag == "lower":
        return _fuzzy_sets(A, lowers)
    kind = "upper" if tag == "flat" else "lower"
    inhabited = [vals for vals in lowers if _inhabited(A, vals)]
    sets = _route(A, kind, len(inhabited), budget)
    fails = ((lambda vals: _first_break(A, kind, vals)) if sets is None
             else lambda vals: _break(A, kind, vals, sets))
    return _fuzzy_sets(A, [vals for vals in inhabited if fails(vals) is None])
