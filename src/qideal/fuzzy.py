"""Fuzzy lower/upper sets over a Q-ordered set.

A fuzzy set is a value vector over the carrier.  Lower means
phi(y) & A(x,y) <= phi(x), upper means A(x,y) & psi(x) <= psi(y),
inhabited means the values join to 1.  The inclusion degree sub and the
intersection degree tensor are the two pairings everything downstream is
built from.
"""

from __future__ import annotations

from collections import deque
from itertools import compress, repeat
from operator import and_, itemgetter

from ._value import Frozen
from .errors import (  # noqa: F401  (DEFAULT_BUDGET is re-exported)
    DEFAULT_BUDGET,
    BaseMismatch,
    NotLower,
    NotUpper,
    ShapeMismatch,
    _charge,
)


class FuzzySet(Frozen, fields="base values"):
    """values: quantale indices aligned with base.elements.  Enumeration
    builds instances in bulk (_fuzzy_sets), filling the two slots without
    calling __init__, so __init__ may only fill them: it computes and
    checks nothing."""

    __slots__ = ("base", "values")

    def __init__(self, base, values):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        return FuzzySet, (self.base, self.values)

    def value(self, label):
        return self.base.quantale.elements[self.values[self.base.index(label)]]

    def as_dict(self):
        lab = self.base.quantale.elements.__getitem__
        return {e: lab(v) for e, v in zip(self.base.elements, self.values)}


def _fuzzy_sets(A, value_tuples):
    """FuzzySet(A, v) for each v of the sequence value_tuples, in order.
    The objects are made and their slots filled by C-level loops over
    the slot descriptors, with no Python call per set."""
    sets = tuple(map(object.__new__, repeat(FuzzySet, len(value_tuples))))
    deque(map(FuzzySet.base.__set__, sets, repeat(A)), 0)
    deque(map(FuzzySet.values.__set__, sets, value_tuples), 0)
    return sets


def fuzzy_set(base, values):
    """values: dict carrier label -> quantale label, or an aligned sequence."""
    q = base.quantale
    if isinstance(values, dict):
        vec = base.aligned(values, q.index, "values miss a carrier element",
                           "values cover labels outside the carrier")
    else:
        vec = [q.index(v) for v in values]
        if len(vec) != base.n:
            raise ShapeMismatch("value vector length differs from the carrier")
    return FuzzySet(base, tuple(vec))


def yoneda(A, a):
    """The principal lower set A(-, a)."""
    j = A.index(a)
    return FuzzySet(A, tuple(A.hom[i][j] for i in range(A.n)))


def constant_fuzzy_set(A, p):
    return FuzzySet(A, (A.quantale.index(p),) * A.n)


def _lower_violation(A, vals):
    tens, leq, hom, points = A.quantale.tensor_table, A.quantale.leq, A.hom, range(A.n)
    for y in points:
        row = tens[vals[y]]
        for x in points:
            if not leq[row[hom[x][y]]][vals[x]]:
                return (x, y)
    return None


def _upper_violation(A, vals):
    tens, leq, hom, points = A.quantale.tensor_table, A.quantale.leq, A.hom, range(A.n)
    for x in points:
        vx, hx = vals[x], hom[x]
        for y in points:
            if not leq[tens[hx[y]][vx]][vals[y]]:
                return (x, y)
    return None


def _inhabited(A, vals):
    q = A.quantale
    return q.unit in vals if q.unit_join_irreducible else q.join_all(vals) == q.unit


def classify_fuzzy_set(phi):
    """Flags {lower, upper, inhabited} plus a failing pair per false flag."""
    A = phi.base
    lw = _lower_violation(A, phi.values)
    uw = _upper_violation(A, phi.values)
    lab = A.elements.__getitem__
    return {
        "lower": lw is None,
        "upper": uw is None,
        "inhabited": _inhabited(A, phi.values),
        "witnesses": {
            "lower": None if lw is None else (lab(lw[0]), lab(lw[1])),
            "upper": None if uw is None else (lab(uw[0]), lab(uw[1])),
        },
    }


def _same_base(phi1, phi2):
    if phi1.base != phi2.base:
        raise BaseMismatch("fuzzy sets live on different bases")


def _sub_idx(A, v1, v2):
    q = A.quantale
    return q.meet_all(q.res_table[a][b] for a, b in zip(v1, v2))


def _tensor_idx(A, v1, v2):
    q = A.quantale
    return q.join_all(q.tensor_table[a][b] for a, b in zip(v1, v2))


def sub_degree(phi1, phi2):
    """Inclusion degree: meet over x of phi1(x) -> phi2(x)."""
    _same_base(phi1, phi2)
    A = phi1.base
    return A.quantale.elements[_sub_idx(A, phi1.values, phi2.values)]


def tensor_degree(phi, psi):
    """Intersection degree of a lower set with an upper set:
    join over x of phi(x) & psi(x).  Non-lower/non-upper inputs are
    hard errors carrying the failing pair."""
    _same_base(phi, psi)
    A = phi.base
    lab = A.elements.__getitem__
    w = _lower_violation(A, phi.values)
    if w is not None:
        raise NotLower("left argument is not a fuzzy lower set",
                       witness=(lab(w[0]), lab(w[1])))
    w = _upper_violation(A, psi.values)
    if w is not None:
        raise NotUpper("right argument is not a fuzzy upper set",
                       witness=(lab(w[0]), lab(w[1])))
    return A.quantale.elements[_tensor_idx(A, phi.values, psi.values)]


def transport(f, phi, direction="forward"):
    """Image of a fuzzy set along a map.

    forward: phi on the source; returns y -> join over x of
    phi(x) & B(y, f(x)) (always a lower set of the target).
    backward: phi on the target; returns phi composed with f.
    """
    if direction == "forward":
        if phi.base != f.source:
            raise BaseMismatch("forward transport needs a fuzzy set on the source")
        B = f.target
        return FuzzySet(B, tuple(_tensor_idx(f.source, phi.values, [row[j] for j in f.mapping])
                                 for row in B.hom))
    if direction == "backward":
        if phi.base != f.target:
            raise BaseMismatch("backward transport needs a fuzzy set on the target")
        return FuzzySet(f.source, tuple(phi.values[j] for j in f.mapping))
    raise ValueError(f"unknown transport direction {direction!r}")


def suprema(phi):
    """All carrier elements a with A(a, x) = sub(phi, y(x)) for every x.

    Empty tuple: no supremum.  More than one element only in
    non-separated bases.  Requires a lower set.
    """
    A = phi.base
    lab = A.elements.__getitem__
    w = _lower_violation(A, phi.values)
    if w is not None:
        raise NotLower("suprema are defined for fuzzy lower sets only",
                       witness=(lab(w[0]), lab(w[1])))
    # sub(phi, y(x)), y(x) the column x of the hom
    target = tuple(_sub_idx(A, phi.values, col) for col in zip(*A.hom))
    return tuple(A.elements[a] for a in range(A.n) if A.hom[a] == target)


# (quantale, hom) -> (value tuples, walk count): the lower sets of every
# base with that hom, kept for the life of the process with the count
# their walk made, so that a later call charges it against its own
# budget (_monotone_value_tuples).  The upper sets of a base are the
# lower sets of its dual, whose hom is the transpose, so they are kept
# under it: dL's upper walk serves dR's lower sets, a symmetric or
# discrete base walks once for both kinds, and relabelled bases share
# an entry.  A refused walk keeps nothing.
_MEMO = {}


def _walk(A, kind, budget):
    """Depth-first assignment of coordinates 0..n-1, trying every value
    in index order and keeping it only if each pair it forms with the
    coordinates already fixed satisfies the condition.  The conditions
    are pairwise, so a rejected prefix has no monotone completion and
    the pruning is exact; the output is in the lexicographic order of
    itertools.product.  The masks are set up by C-level row maps, and
    by integrality the root state admits every value.  A node's state,
    the masks of the values still admissible at the coordinates after
    its prefix, fixes its completions, so a state met again re-prefixes
    the block of out it emitted the first time.  The walk charges what
    it does, |Q| values tried per node and n values written per set (a
    copied one too), each before it is done; a refusal names the count
    where the walk stopped, a lower bound on what it needs.  Returns the
    value tuples and the whole count."""
    q = A.quantale
    n, m = A.n, q.n
    leq, tens, res, hom = q.leq, q.tensor_table, q.res_table, A.hom
    values = range(m)
    # bitmasks over values, built by C-level row maps: up[a] (down[a])
    # holds the values at or above (below) a, a row (column) of leq, and
    # after[j][u][k-j-1] admits v at coordinate k > j beside the value u
    # at j.  The tensor is commutative, so a lower set has u & A(k,j) <= v
    # at k and, by residuation, v <= A(j,k) -> u; an upper set swaps the
    # two degrees.  The root admits every value at every coordinate: the
    # pair a coordinate forms with itself, v & A(i,i) <= v, holds by
    # integrality, as v & A(i,i) <= v & 1 = v.
    bits = [1 << v for v in values]
    up = [sum(compress(bits, row)) for row in leq]
    down = [sum(compress(bits, col)) for col in zip(*leq)]
    upt = [list(map(up.__getitem__, row)) for row in tens]
    dnr = [list(map(down.__getitem__, row)) for row in res]
    lift = hom if kind == "lower" else tuple(zip(*hom))
    after = [tuple(zip(*[map(and_, upt[lift[k][j]], dnr[lift[j][k]]) for k in range(j + 1, n)]))
             for j in range(n)]
    out = []
    seen = {}       # state -> (first, last): its block of out
    done = 0

    def extend(prefix, state):
        nonlocal done
        i, first = len(prefix), len(out)
        mask, rest = state[0], state[1:]
        if not rest:
            done += m + n * mask.bit_count()
            _charge(done, budget, "walk values tried and written", partial=True)
            out.extend([prefix + (v,) for v in values if mask >> v & 1])
        else:
            done += m
            _charge(done, budget, "walk values tried and written", partial=True)
            step, cut = after[i], itemgetter(slice(i + 1, None))
            for v in values:
                if mask >> v & 1:
                    child, head = tuple(map(and_, rest, step[v])), prefix + (v,)
                    block = seen.get(child)
                    if block is None:
                        extend(head, child)
                    else:
                        done += n * (block[1] - block[0])
                        _charge(done, budget, "walk values tried and written", partial=True)
                        out.extend(map(head.__add__, map(cut, out[block[0]:block[1]])))
        seen[state] = (first, len(out))

    try:
        extend((), (sum(bits),) * n)
    finally:
        del extend      # the closure refers to itself: free out and seen now
    return tuple(out), done


def _monotone_value_tuples(A, kind, budget):
    """Value tuples of every lower (or upper) set of A, from the walk
    kept in _MEMO: a kept walk charges its whole count once, which any
    budget refuses or admits as the walk's running count would.  _walk
    reads A's upper sets off the transposed hom as lower sets, so an
    entry and its count are the same whichever of two dual bases made
    it."""
    key = A.quantale, (A.hom if kind == "lower" else tuple(zip(*A.hom)))
    entry = _MEMO.get(key)
    if entry is None:
        entry = _MEMO[key] = _walk(A, kind, budget)
    else:
        _charge(entry[1], budget, "walk values tried and written")
    return entry[0]


def enumerate_monotone_sets(A, kind, budget=None):
    """All fuzzy lower (or upper) sets of A, lexicographic in the carrier
    order by quantale element index.  The budget bounds the values the
    walk tries and writes (_walk)."""
    if kind not in ("lower", "upper"):
        raise ValueError(f"unknown kind {kind!r}")
    return _fuzzy_sets(A, _monotone_value_tuples(A, kind, budget))


def intersection_inclusion_identities(A, budget=None):
    """The intersection degree and the inclusion degree determine each
    other by quantifying over the quantale:

        tensor(phi, psi)  = meet_p (sub(phi, psi -> p) -> p)
        sub(phi1, phi2)   = meet_p (tensor(phi1, phi2 -> p) -> p)

    and under double negation both collapse to one negation each.
    Checks every enumerated pair on a finite base; returns the first
    violation (with both sides as labels) or None.  The pairs, times the
    quantale values each quantifies over, are charged against the budget
    before any is checked.
    """
    q = A.quantale
    lowers = _monotone_value_tuples(A, "lower", budget)
    uppers = _monotone_value_tuples(A, "upper", budget)
    _charge(len(lowers) * (len(uppers) + len(lowers)) * q.n, budget, "pairs checked")
    res, meet, neg, dn = q.res_table, q.meet_table, q.neg_vector, q.has_double_negation
    lab = q.elements.__getitem__

    def bad(name, v1, v2, lhs, rhs):
        return {"identity": name,
                "phi": FuzzySet(A, v1).as_dict(), "psi": FuzzySet(A, v2).as_dict(),
                "lhs": lab(lhs), "rhs": lab(rhs)}

    for seconds, degree, dual, name, via in (
            (uppers, _tensor_idx, _sub_idx, "intersection", "inclusion"),
            (lowers, _sub_idx, _tensor_idx, "inclusion", "intersection")):
        for phi in lowers:
            for psi in seconds:
                d = degree(A, phi, psi)
                acc = q.top
                for p in range(q.n):
                    arrow = tuple(res[v][p] for v in psi)
                    acc = meet[acc][res[dual(A, phi, arrow)][p]]
                if acc != d:
                    return bad(f"{name} via {via}", phi, psi, d, acc)
                if dn:
                    other = neg[dual(A, phi, tuple(neg[v] for v in psi))]
                    if other != d:
                        return bad(f"{name} via one negation", phi, psi, d, other)
    return None


def kan_transport_identity(f, budget=None):
    """Forward and backward transport are adjoint through inclusion:
    sub(forward(phi), psi) = sub(phi, backward(psi)) for every lower set
    phi of the source and psi of the target.  Returns the first
    violating pair or None.  The pairs are charged against the budget
    before any is checked."""
    A, B = f.source, f.target
    q = A.quantale
    if B.quantale is not q:
        raise BaseMismatch("map endpoints live over different quantales")
    sources = _monotone_value_tuples(A, "lower", budget)
    targets = _monotone_value_tuples(B, "lower", budget)
    _charge(len(sources) * len(targets), budget, "pairs checked")
    lab = q.elements.__getitem__
    fwds = [(pv, transport(f, FuzzySet(A, pv), "forward").values)
            for pv in sources]
    for sv in targets:
        back = transport(f, FuzzySet(B, sv), "backward").values
        for pv, fv in fwds:
            lhs = _sub_idx(B, fv, sv)
            rhs = _sub_idx(A, pv, back)
            if lhs != rhs:
                return {"phi": FuzzySet(A, pv).as_dict(),
                        "psi": FuzzySet(B, sv).as_dict(),
                        "forward_side": lab(lhs), "backward_side": lab(rhs)}
    return None
