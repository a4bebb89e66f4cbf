"""Q-ordered sets: carriers with a quantale-valued hom.

A Q-order on a carrier is a matrix A(x,y) of quantale elements with
A(x,x) = 1 and A(y,z) & A(x,y) <= A(x,z).  Everything here is an explicit
table over a finite carrier.
"""

from __future__ import annotations

import itertools

from ._value import Frozen
from .errors import (
    EmptyCarrier,
    QuantaleMismatch,
    ShapeMismatch,
    ValidationError,
    _charge,
)
from .quantale import _Labelled, label_map


class QOrderedSet(_Labelled, Frozen, fields="quantale elements hom catalog", uncompared="catalog"):
    """Finite Q-ordered set: labels plus a hom table of quantale indices;
    hom[i][j] is the quantale index of A(x_i, x_j)."""

    def __init__(self, quantale, elements, hom, catalog=None):
        self._init(quantale, elements, hom, catalog)

    @property
    def n(self):
        return len(self.elements)

    def aligned(self, mapping, value, missing, outside):
        """[value(v) for each point], v what the dict mapping gives the
        point under any spelling of its label.  Refuses two keys that
        name one point, then a point with no key (message missing), then
        keys that name no point (message outside), by ShapeMismatch."""
        keys, extra = {}, []
        for key in mapping:
            try:
                i = self.index(key)
            except KeyError:
                extra.append(key)
                continue
            if keys.setdefault(i, key) is not key:
                raise ShapeMismatch("two keys name one point", witness=(keys[i], key))
        vals = []
        for i, e in enumerate(self.elements):
            if i not in keys:
                raise ShapeMismatch(missing, witness=(e,))
            vals.append(value(mapping[keys[i]]))
        if extra:
            raise ShapeMismatch(outside, witness=tuple(sorted(map(str, extra))))
        return vals

    def degree(self, x, y):
        """A(x,y) as a quantale label."""
        return self.quantale.elements[self.hom[self.index(x)][self.index(y)]]


def qorder_violation(q, hom):
    """First reflexivity or transitivity failure in an index-level hom
    table, as a dict with the computed sides, or None."""
    n = len(hom)
    for i in range(n):
        if hom[i][i] != q.unit:
            return {"law": "hom is not reflexive", "witness": (i,),
                    "lhs": hom[i][i], "rhs": q.unit}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = q.tensor(hom[y][z], hom[x][y])
                if not q.leq[lhs][hom[x][z]]:
                    return {"law": "hom is not transitive", "witness": (x, y, z),
                            "lhs": lhs, "rhs": hom[x][z]}
    return None


def build_qorder(q, elements, hom, catalog=None):
    """Build a QOrderedSet from labels and a hom table of quantale labels.

    Raises EmptyCarrier, ShapeMismatch for malformed tables, and
    ValidationError with the failing triple for reflexivity/transitivity.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise EmptyCarrier()
    label_map(elements)     # refuses two labels that name one point
    if len(hom) != n or any(len(row) != n for row in hom):
        raise ShapeMismatch("hom table is not square over the carrier")
    try:
        hom_idx = tuple(tuple(q.index(v) for v in row) for row in hom)
    except KeyError as exc:
        raise ShapeMismatch("hom entry outside the quantale", witness=(exc.args[0],))
    bad = qorder_violation(q, hom_idx)
    if bad is not None:
        lab = q.elements.__getitem__
        raise ValidationError(
            bad["law"], witness=tuple(elements[i] for i in bad["witness"]),
            detail=f"computed {lab(bad['lhs'])} against {lab(bad['rhs'])}")
    return QOrderedSet(q, elements, hom_idx, catalog=catalog)


def validate_qorder(A):
    """Recheck the axioms on an already-assembled QOrderedSet.

    Returns None, or the first violation as a dict with label witnesses
    and both computed sides.
    """
    bad = qorder_violation(A.quantale, A.hom)
    if bad is None:
        return None
    lab = A.quantale.elements.__getitem__
    return {"law": bad["law"],
            "witness": tuple(A.elements[i] for i in bad["witness"]),
            "lhs": lab(bad["lhs"]), "rhs": lab(bad["rhs"])}


def opposite(A):
    """Flip the hom matrix."""
    n = A.n
    hom = tuple(tuple(A.hom[j][i] for j in range(n)) for i in range(n))
    cat = ("opposite", {"of": A.catalog}) if A.catalog else None
    return QOrderedSet(A.quantale, A.elements, hom, catalog=cat)


def point_qorder(q):
    """The one-element Q-ordered set."""
    return QOrderedSet(q, ("*",), ((q.unit,),), catalog=("point", {}))


def crisp_qorder(q, elements, leq, catalog=None):
    """Embed a crisp preorder: hom is 1 where leq holds, 0 elsewhere."""
    lab = q.elements.__getitem__
    hom = [[lab(q.unit) if v else lab(q.bottom) for v in row] for row in leq]
    return build_qorder(q, elements, hom, catalog=catalog)


# the parameters each named construction reads, besides the budget
_STANDARD_PARAMS = {"dL": (), "dR": (), "discrete": ("n", "labels"),
                    "power": ("n", "labels"), "point": ()}


def standard_qorder(q, name, **params):
    """Named constructions.

    dL: carrier Q with hom p -> r.  dR: carrier Q with hom r -> p.
    discrete: n points (or explicit labels), hom 1 on the diagonal and 0
    off it.  power: all maps from a label set into Q, ordered by pointwise
    inclusion degree, each map the point "(v1, ..., vk)" named by the
    labels of its values; its count**2 * k hom lookups, for count = |Q|**k
    maps on k labels, are charged against params budget first.
    point: the one-element order.  Every construction takes a budget,
    and a parameter it does not read is refused.
    """
    if name not in _STANDARD_PARAMS:
        raise ValueError(f"unknown standard Q-order {name!r}")
    unknown = sorted(set(params) - {"budget", *_STANDARD_PARAMS[name]})
    if unknown:
        raise ValueError(f"a {name} order reads no parameter {', '.join(unknown)}; "
                         f"its parameters are {', '.join(_STANDARD_PARAMS[name]) or 'none'}")
    if name in ("discrete", "power") and params.get("labels") is None and params.get("n") is None:
        raise ValueError(f'a {name} order needs "n" or "labels"')
    if name in ("dL", "dR"):
        hom = q.res_table if name == "dL" else tuple(zip(*q.res_table))
        return QOrderedSet(q, q.elements, hom, catalog=(name, {}))
    if name == "discrete":
        labels = params.get("labels")
        if labels is None:
            labels = tuple(f"x{i}" for i in range(params["n"]))
        labels = tuple(labels)
        n = len(labels)
        if n == 0:
            raise EmptyCarrier()
        label_map(labels)   # refuses two labels that name one point
        hom = tuple(tuple(q.unit if i == j else q.bottom for j in range(n))
                    for i in range(n))
        return QOrderedSet(q, labels, hom, catalog=("discrete", {"n": n}))
    if name == "power":
        labels = params.get("labels")
        k = params["n"] if labels is None else len(labels)
        if k <= 0:
            raise EmptyCarrier(detail="power over an empty label set")
        _charge(q.n ** (2 * k) * k, params.get("budget"), "power hom lookups")
        if labels is None:
            labels = tuple(f"x{i}" for i in range(k))
        vecs = list(itertools.product(range(q.n), repeat=k))
        hom = tuple(
            tuple(q.meet_all(q.res_table[a][b] for a, b in zip(f, g)) for g in vecs)
            for f in vecs)
        carrier = tuple(f"({', '.join(str(q.elements[v]) for v in vec)})" for vec in vecs)
        label_map(carrier)  # refuses two maps whose names spell alike
        return QOrderedSet(q, carrier, hom, catalog=("power", {"labels": list(labels)}))
    return point_qorder(q)


def random_qorder(q, n, rng, labels=None):
    """Seeded random Q-order: random hom, forced-diagonal, then the
    quantale-valued transitive closure (iterate to the fixpoint)."""
    if labels is None:
        labels = tuple(f"x{i}" for i in range(n))
    label_map(labels)       # refuses two labels that name one point
    hom = [[rng.randrange(q.n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        hom[i][i] = q.unit
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    v = q.join(hom[x][z], q.tensor(hom[y][z], hom[x][y]))
                    if v != hom[x][z]:
                        hom[x][z] = v
                        changed = True
    return QOrderedSet(q, labels, tuple(tuple(r) for r in hom), catalog=("random", {"n": n}))


class QMap(Frozen, fields="source target mapping"):
    # mapping: target indices aligned with source.elements
    def __init__(self, source, target, mapping):
        self._init(source, target, mapping)

    def order_violation(self):
        """First pair with A(x1,x2) not below B(f x1, f x2), or None."""
        A, B, q = self.source, self.target, self.source.quantale
        for i in range(A.n):
            for j in range(A.n):
                if not q.leq[A.hom[i][j]][B.hom[self.mapping[i]][self.mapping[j]]]:
                    return (A.elements[i], A.elements[j])
        return None

    @property
    def is_order_preserving(self):
        return self.order_violation() is None


def build_qmap(source, target, mapping):
    """mapping: dict source label -> target label, or a sequence of target
    labels aligned with source.elements."""
    if source.quantale != target.quantale:
        raise QuantaleMismatch("map endpoints live over different quantales")
    if isinstance(mapping, dict):
        idx = source.aligned(mapping, target.index, "mapping misses a source element",
                             "mapping has labels outside the source")
    else:
        vals = list(mapping)
        if len(vals) != source.n:
            raise ShapeMismatch("mapping length differs from the source carrier")
        idx = [target.index(v) for v in vals]
    return QMap(source, target, tuple(idx))


def identity_qmap(A):
    return QMap(A, A, tuple(range(A.n)))


def all_qmaps(A, B):
    """Every set map A -> B, in lexicographic order of the image tuple."""
    for vec in itertools.product(range(B.n), repeat=A.n):
        yield QMap(A, B, vec)


def check_map_and_adjunction(f, g=None):
    """Order preservation of f (and g), and whether (f, g) is an adjoint
    pair: A(x, g(y)) = B(f(x), y) for all x, y.
    """
    out = {"order_preserving": None, "witness": None,
           "g_order_preserving": None, "g_witness": None,
           "adjoint": None, "adjoint_witness": None}
    out["witness"] = f.order_violation()
    out["order_preserving"] = out["witness"] is None
    if g is None:
        return out
    if g.source.quantale != f.source.quantale:
        raise QuantaleMismatch("candidate adjoint lives over a different quantale")
    if g.source != f.target or g.target != f.source:
        raise ShapeMismatch("candidate adjoint does not run target -> source")
    out["g_witness"] = g.order_violation()
    out["g_order_preserving"] = out["g_witness"] is None
    A, B = f.source, f.target
    out["adjoint"] = True
    for i in range(A.n):
        for j in range(B.n):
            if A.hom[i][g.mapping[j]] != B.hom[f.mapping[i]][j]:
                out["adjoint"] = False
                out["adjoint_witness"] = (A.elements[i], B.elements[j])
                return out
    return out
