"""Finite quantales with derived residuation.

The algebra throughout: a complete lattice carrying a commutative,
associative tensor ``&`` that distributes over joins, whose unit is the
top element.  The residuation ``->`` is the right adjoint of the tensor,

    p & q <= r   iff   q <= p -> r,

computed as the join of every s with p & s <= r.  The unit interval,
with its closed forms, lives in the interval module.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from fractions import Fraction

from ._value import Frozen
from .errors import (
    ChainNotClosed,
    EmptyCarrier,
    NotALattice,
    NotAssociative,
    NotCommutative,
    NotDistributive,
    NotIntegral,
    ShapeMismatch,
)

_NUMERAL = re.compile(r"\s*[-+]?\.?\d")      # how every string Fraction() reads begins

# the largest index families that the residuation and negation law checks try
_RESIDUATION_FAMILY_SIZE, _NEGATION_FAMILY_SIZE = 2, 3


def _label_key(label):
    """The key that decides which spellings name one carrier label.  A
    number, or a string that spells one ("1/2", "0.5"), keys by its exact
    value, a float read in decimal, as written (0.1 is 1/10).  A bool
    keys apart: True == 1 == Fraction(1), with one hash.  Anything else
    is itself."""
    if isinstance(label, bool):
        return bool, label
    if isinstance(label, float) or isinstance(label, str) and _NUMERAL.match(label):
        try:
            return Fraction(str(label))
        except (ValueError, ZeroDivisionError):
            return label
    return label


def label_map(labels):
    """Each label's index under its key, and a string's also under
    itself, so a label spelled as the carrier spells it costs one dict
    hit (a label that is no bool, float or string is its own key).  Two
    labels with one key are refused."""
    index = {}
    for i, label in enumerate(labels):
        key = _label_key(label)
        if key in index:
            raise ShapeMismatch("duplicate element label", witness=(label,))
        index[key] = i
        if isinstance(label, str):
            index[label] = i
    return index


def label_index(index, label):
    """The index of label in a label_map: the entry of the label as
    written, if it has one and is no bool or float, else its key's."""
    try:
        i = None if isinstance(label, (bool, float)) else index.get(label)
        return index[_label_key(label)] if i is None else i
    except (KeyError, TypeError):
        raise KeyError(f"label {label!r} is not in the carrier") from None


class _Labelled:
    """index(label): the position that label names in elements, read
    from a label_map built on the first call.  The map is set past the
    frozen __setattr__, not by a cached_property, whose write through
    __dict__ makes every later attribute read of the object slower."""

    __slots__ = ()
    _by_label = None

    def index(self, label):
        if self._by_label is None:
            object.__setattr__(self, "_by_label", label_map(self.elements))
        return label_index(self._by_label, label)


class FiniteQuantale(_Labelled, Frozen,
                     fields="elements leq tensor_table unit join_table meet_table "
                            "res_table neg_vector bottom top catalog",
                     hidden="join_table meet_table res_table neg_vector",
                     uncompared="join_table meet_table res_table neg_vector bottom top catalog"):
    """Integral commutative quantale on an explicit finite lattice.

    Elements are addressed by index; ``elements`` holds the labels.  All
    structure (order, tensor, joins, meets, residuation, negation) lives
    in precomputed tables, so every operation is a lookup.  Instances are
    built through :func:`build_finite_quantale`, which validates the laws
    and derives the tables.
    """

    # the hash and two derived facts, each set on first use past the
    # frozen __setattr__, as _Labelled sets its map
    _hash = _primes = _unit_irreducible = None

    # leq[i][j]: element i below element j; tensor_table[i][j]: index of
    # element i & element j
    def __init__(self, elements, leq, tensor_table, unit, join_table, meet_table,
                 res_table, neg_vector, bottom, top, catalog=None):
        self._init(elements, leq, tensor_table, unit, join_table, meet_table, res_table,
                   neg_vector, bottom, top, catalog)

    def __hash__(self):
        # kept, as the walk memo in fuzzy hashes the quantale on every
        # lookup; read off the index tables, which equal quantales share
        # and which hash alike in every process, so a pickled hash holds
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.leq, self.tensor_table, self.unit)))
        return self._hash

    @property
    def n(self):
        return len(self.elements)

    # index-level operations
    def tensor(self, i, j):
        return self.tensor_table[i][j]

    def join(self, i, j):
        return self.join_table[i][j]

    def meet(self, i, j):
        return self.meet_table[i][j]

    def residuate(self, i, j):
        return self.res_table[i][j]

    def neg(self, i):
        return self.neg_vector[i]

    def join_all(self, indices):
        out = self.bottom
        for i in indices:
            out = self.join_table[out][i]
        return out

    def meet_all(self, indices):
        out = self.top
        for i in indices:
            out = self.meet_table[out][i]
        return out

    @property
    def is_linear(self):
        n = self.n
        return all(self.leq[i][j] or self.leq[j][i] for i in range(n) for j in range(n))

    @property
    def is_frame(self):
        return self.tensor_table == self.meet_table

    @property
    def has_double_negation(self):
        """Whether negation, a -> 0, is an involution: neg(neg(a)) = a."""
        neg = self.neg_vector
        return all(neg[v] == i for i, v in enumerate(neg))

    @property
    def unit_join_irreducible(self):
        """Whether the unit, the top, is no join of the elements below
        it: then a nonempty family joins to the unit iff the unit is one
        of its members.  True on every chain, False on boolean4."""
        if self._unit_irreducible is None:
            object.__setattr__(self, "_unit_irreducible", self.unit != self.join_all(
                v for v in range(self.n) if v != self.unit))
        return self._unit_irreducible

    @property
    def prime_tables(self):
        """The thresholds and generator values of the flat and irreducible
        deciders (PrimeTables), derived on first use."""
        if self._primes is None:
            object.__setattr__(self, "_primes", _prime_tables(self))
        return self._primes


class PrimeSide(namedtuple("PrimeSide", "thresholds generators table keeps")):
    """One decider's share of PrimeTables: its thresholds, generators[a][k]
    (the maximal b with a -> b <= thresholds[k] for the irreducible
    decider, the minimal b with thresholds[k] <= a & b for the flat one;
    empty when no b qualifies), the table its generator rows read (the
    row of a point y and value w takes table[A(y,x)][w] at x), and keeps,
    with keeps[v][w] when a row value v stays within the class of w
    (v <= w for the irreducible decider, v >= w for the flat one)."""

    __slots__ = ()


class PrimeTables(namedtuple("PrimeTables", "distributive lower upper")):
    """What the generator deciders read off a finite quantale.

    In a finite distributive lattice every meet-irreducible element u is
    meet-prime (a meet lies below u iff one of its terms does) and every
    join-irreducible j is join-prime (Birkhoff; Davey and Priestley,
    Introduction to Lattices and Order, ch. 5), and every element is the
    meet of the meet-irreducibles above it and the join of the
    join-irreducibles below it.  lower holds the irreducible decider's
    side, with the meet-irreducible thresholds and the residuation
    table; upper the flat decider's, with the join-irreducible
    thresholds and the tensor table.
    """

    __slots__ = ()


def _prime_tables(q):
    """PrimeTables of the finite quantale q, by exhaustive search."""
    rng = range(q.n)
    leq, join, meet = q.leq, q.join_table, q.meet_table
    geq = tuple(zip(*leq))
    distributive = all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
                       for a in rng for b in rng for c in rng)

    def side(thresholds, fits, table, keeps):
        """The side whose generators for a and threshold t are the b with
        fits(a, b, t) that keep no other such value."""
        def extremes(t, a):
            pick = [b for b in rng if fits(a, b, t)]
            return tuple(b for b in pick if not any(c != b and keeps[b][c] for c in pick))
        return PrimeSide(thresholds, tuple(tuple(extremes(t, a) for t in thresholds)
                                           for a in rng), table, keeps)

    meet_irr = tuple(u for u in rng if u != q.top and u != q.meet_all(
        v for v in rng if leq[u][v] and v != u))
    join_irr = tuple(j for j in rng if j != q.bottom and j != q.join_all(
        v for v in rng if leq[v][j] and v != j))
    return PrimeTables(
        distributive,
        side(meet_irr, lambda a, b, u: leq[q.res_table[a][b]][u], q.res_table, leq),
        side(join_irr, lambda a, b, j: leq[j][q.tensor_table[a][b]], q.tensor_table, geq))


def build_finite_quantale(elements, leq, tensor, unit, catalog=None):
    """Validate the tables and derive joins, meets, residuation, negation.

    ``leq`` rows are booleans, ``tensor`` entries are labels, ``unit`` is a
    label.  Raises the first violated law with a witness of labels, in the
    order: lattice axioms, associativity, commutativity, integrality
    (unit = top and unit acts as identity), distributivity over joins.
    """
    elements = tuple(elements)
    n = len(elements)
    if n == 0:
        raise EmptyCarrier()
    index = label_map(elements)
    if len(leq) != n or any(len(row) != n for row in leq):
        raise ShapeMismatch("leq table is not square over the carrier")
    if len(tensor) != n or any(len(row) != n for row in tensor):
        raise ShapeMismatch("tensor table is not square over the carrier")
    leq_t = tuple(tuple(bool(v) for v in row) for row in leq)

    def at(label, where):
        try:
            return label_index(index, label)
        except KeyError:
            raise ShapeMismatch(f"{where} outside the carrier", witness=(label,)) from None

    tens = tuple(tuple(at(v, "tensor entry") for v in row) for row in tensor)
    unit_i = at(unit, "unit label")
    lab = elements.__getitem__

    for i in range(n):
        if not leq_t[i][i]:
            raise NotALattice("order is not reflexive", witness=(lab(i),))
    for i in range(n):
        for j in range(n):
            if i != j and leq_t[i][j] and leq_t[j][i]:
                raise NotALattice("order is not antisymmetric", witness=(lab(i), lab(j)))
    for i in range(n):
        for j in range(n):
            if not leq_t[i][j]:
                continue
            for k in range(n):
                if leq_t[j][k] and not leq_t[i][k]:
                    raise NotALattice("order is not transitive", witness=(lab(i), lab(j), lab(k)))

    def lub(i, j):
        ubs = [k for k in range(n) if leq_t[i][k] and leq_t[j][k]]
        least = [k for k in ubs if all(leq_t[k][m] for m in ubs)]
        return least[0] if len(least) == 1 else None

    def glb(i, j):
        lbs = [k for k in range(n) if leq_t[k][i] and leq_t[k][j]]
        greatest = [k for k in lbs if all(leq_t[m][k] for m in lbs)]
        return greatest[0] if len(greatest) == 1 else None

    join_rows, meet_rows = [], []
    for i in range(n):
        jrow, mrow = [], []
        for j in range(n):
            v = lub(i, j)
            if v is None:
                raise NotALattice("pair has no least upper bound", witness=(lab(i), lab(j)))
            jrow.append(v)
            w = glb(i, j)
            if w is None:
                raise NotALattice("pair has no greatest lower bound", witness=(lab(i), lab(j)))
            mrow.append(w)
        join_rows.append(tuple(jrow))
        meet_rows.append(tuple(mrow))
    join_t, meet_t = tuple(join_rows), tuple(meet_rows)

    bot = 0
    top = 0
    for i in range(1, n):
        bot = meet_t[bot][i]
        top = join_t[top][i]

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if tens[tens[i][j]][k] != tens[i][tens[j][k]]:
                    raise NotAssociative(
                        "tensor is not associative", witness=(lab(i), lab(j), lab(k)))
    for i in range(n):
        for j in range(n):
            if tens[i][j] != tens[j][i]:
                raise NotCommutative("tensor is not commutative", witness=(lab(i), lab(j)))
    if unit_i != top:
        raise NotIntegral("unit is not the top element", witness=(unit, lab(top)))
    for i in range(n):
        if tens[unit_i][i] != i:
            raise NotIntegral("unit does not act as identity", witness=(lab(i),))
    for p in range(n):
        if tens[p][bot] != bot:
            raise NotDistributive("tensor does not absorb bottom", witness=(lab(p),))
        for q in range(n):
            for r in range(n):
                if tens[p][join_t[q][r]] != join_t[tens[p][q]][tens[p][r]]:
                    raise NotDistributive(
                        "tensor does not distribute over join",
                        witness=(lab(p), lab(q), lab(r)))

    res_rows = []
    for p in range(n):
        row = []
        for r in range(n):
            best = bot
            for s in range(n):
                if leq_t[tens[p][s]][r]:
                    best = join_t[best][s]
            row.append(best)
        res_rows.append(tuple(row))
    res_t = tuple(res_rows)
    # the adjunction is forced by distributivity; cheap insurance against table bugs
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if leq_t[tens[p][q]][r] != leq_t[q][res_t[p][r]]:
                    raise RuntimeError(
                        f"internal: residuation adjunction failed at {lab(p)},{lab(q)},{lab(r)}")
    neg = tuple(res_t[i][bot] for i in range(n))

    return FiniteQuantale(elements, leq_t, tens, unit_i, join_t, meet_t, res_t, neg, bot, top,
                          catalog=catalog)


def boolean4():
    """Four-element Boolean algebra {0, a, b, 1} with tensor = meet."""
    e = ("0", "a", "b", "1")
    leq = (
        (1, 1, 1, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 1),
    )
    meet = (
        ("0", "0", "0", "0"),
        ("0", "a", "0", "a"),
        ("0", "0", "b", "b"),
        ("0", "a", "b", "1"),
    )
    return build_finite_quantale(e, leq, meet, "1", catalog=("boolean4", {}))


def _closed_forms(zero, one):
    """tag -> (tensor, residuate) of the four closed-form t-norms of [0, 1],
    written over the constants zero and one: the only place their
    formulas are written.  interval holds the float instance, and
    chain_quantale tabulates the Fraction one.  residuate(a, b) is
    exactly one whenever a <= b, the fact every skip in the interval
    grid scans rests on."""
    return {"min": (lambda a, b: a if a < b else b,
                    lambda a, b: one if a <= b else b),
            "product": (lambda a, b: a * b,
                        lambda a, b: one if a <= b else b / a),
            "lukasiewicz": (lambda a, b: max(a + b - one, zero),
                            lambda a, b: one if a <= b else min(one, one - a + b)),
            "nilpotent_minimum": (lambda a, b: zero if a + b <= one else min(a, b),
                                  lambda a, b: one if a <= b else max(one - a, b))}


# chain t-norm name -> its closed form's tag
_CHAIN_TNORMS = {"lukasiewicz": "lukasiewicz", "godel": "min",
                 "nilpotent_minimum": "nilpotent_minimum", "product": "product"}


def chain_quantale(tnorm, n=None, carrier=None):
    """Finite chain in [0,1] under a named t-norm, exact rationals.

    Either ``n`` (uniform carrier {0, 1/(n-1), ..., 1}) or an explicit
    ``carrier`` containing 0 and 1.  Raises ChainNotClosed when the
    t-norm leaves the carrier (e.g. product on most grids).
    """
    if tnorm not in _CHAIN_TNORMS:
        raise ValueError(f"unknown chain t-norm {tnorm!r}")
    if carrier is None:
        if n is None or n < 2:
            raise ValueError("need n >= 2 or an explicit carrier")
        points = [Fraction(k, n - 1) for k in range(n)]
        params = {"n": n}
    else:
        points = sorted({Fraction(c) for c in carrier})
        params = {"carrier": [str(c) for c in points]}
    if len(points) < 2 or points[0] != 0 or points[-1] != 1:
        raise ShapeMismatch(
            "chain carrier must run from 0 to 1",
            witness=tuple(str(c) for c in points[:1] + points[-1:]))
    op = _closed_forms(Fraction(0), Fraction(1))[_CHAIN_TNORMS[tnorm]][0]
    pset = set(points)
    tensor = []
    for a in points:
        row = []
        for b in points:
            v = op(a, b)
            if v not in pset:
                raise ChainNotClosed(
                    "tensor leaves the carrier", witness=(str(a), str(b), str(v)))
            row.append(v)
        tensor.append(row)
    leq = [[a <= b for b in points] for a in points]
    return build_finite_quantale(
        tuple(points), leq, tensor, Fraction(1), catalog=(f"{tnorm}_chain", params))


def lukasiewicz_chain(n=None, carrier=None):
    return chain_quantale("lukasiewicz", n=n, carrier=carrier)


def godel_chain(n=None, carrier=None):
    return chain_quantale("godel", n=n, carrier=carrier)


def nilpotent_minimum_chain(n=None, carrier=None):
    return chain_quantale("nilpotent_minimum", n=n, carrier=carrier)


class QuantaleProps(Frozen, fields="is_integral is_commutative is_prelinear is_divisible "
                    "has_double_negation is_archimedean idempotents is_meet_continuous "
                    "is_dually_meet_continuous"):
    # is_archimedean: interval backend only; idempotents: None when not a finite set
    def __init__(self, is_integral, is_commutative, is_prelinear, is_divisible,
                 has_double_negation, is_archimedean, idempotents, is_meet_continuous,
                 is_dually_meet_continuous):
        self._init(is_integral, is_commutative, is_prelinear, is_divisible,
                   has_double_negation, is_archimedean, idempotents, is_meet_continuous,
                   is_dually_meet_continuous)


def quantale_properties(q):
    """Structural predicate flags.

    A finite quantale gets every flag from an exhaustive check, and both
    meet-continuity flags true: every directed subset attains its join
    and meet.  An interval quantale gets interval.interval_properties.
    """
    if not isinstance(q, FiniteQuantale):
        from .interval import interval_properties
        return interval_properties(q)
    rng = range(q.n)
    prelinear = all(
        q.join(q.residuate(i, j), q.residuate(j, i)) == q.top
        for i in rng for j in rng)
    divisible = all(
        q.tensor(i, q.residuate(i, j)) == q.meet(i, j)
        for i in rng for j in rng)
    idem = tuple(q.elements[i] for i in rng if q.tensor(i, i) == i)
    return QuantaleProps(
        is_integral=True, is_commutative=True, is_prelinear=prelinear,
        is_divisible=divisible, has_double_negation=q.has_double_negation,
        is_archimedean=None, idempotents=idem,
        is_meet_continuous=True, is_dually_meet_continuous=True)


def residuation_identity_violations(q):
    """Exhaustively check the residuation identities on a finite quantale.

    For all elements p, q, r and index families J of size <= 2
    plus the empty and full families:

      1. 1 -> p = p
      2. p <= q  iff  p -> q = 1
      3. p -> (q -> r) = (p & q) -> r
      4. p & (p -> q) <= q
      5. (join over J) -> q = meet over J of (p_j -> q)
      6. p -> (meet over J) = meet over J of (p -> q_j)
      7. p = meet over all q of ((p -> q) -> q)

    Returns a list of violation records; empty means all identities hold.
    """
    n = q.n
    rng = range(n)
    out = []
    lab = q.elements.__getitem__
    for p in rng:
        if q.residuate(q.unit, p) != p:
            out.append({"identity": 1, "witness": (lab(p),)})
        for r in rng:
            if q.leq[p][r] != (q.residuate(p, r) == q.unit):
                out.append({"identity": 2, "witness": (lab(p), lab(r))})
            if q.tensor(p, q.residuate(p, r)) != q.meet(q.tensor(p, q.residuate(p, r)), r):
                out.append({"identity": 4, "witness": (lab(p), lab(r))})
            for s in rng:
                if q.residuate(p, q.residuate(r, s)) != q.residuate(q.tensor(p, r), s):
                    out.append({"identity": 3, "witness": (lab(p), lab(r), lab(s))})
    families = [(), tuple(rng)]
    for size in range(1, _RESIDUATION_FAMILY_SIZE + 1):
        families.extend(itertools.combinations(rng, size))
    for fam in families:
        for p in rng:
            lhs = q.residuate(q.join_all(fam), p)
            rhs = q.meet_all(q.residuate(j, p) for j in fam)
            if lhs != rhs:
                out.append({"identity": 5, "witness": (tuple(map(lab, fam)), lab(p))})
            lhs = q.residuate(p, q.meet_all(fam))
            rhs = q.meet_all(q.residuate(p, j) for j in fam)
            if lhs != rhs:
                out.append({"identity": 6, "witness": (lab(p), tuple(map(lab, fam)))})
    for p in rng:
        if q.meet_all(q.residuate(q.residuate(p, j), j) for j in rng) != p:
            out.append({"identity": 7, "witness": (lab(p),)})
    return out


def negation_law_violations(q):
    """Check the double-negation laws on a finite quantale that has them.

    Over all pairs: p -> r = neg(p & neg r) = neg r -> neg p, and
    p & r = neg(r -> neg p) = neg(p -> neg r); over all families of size
    <= 3: neg(meet) = join of negs.
    """
    n = q.n
    rng = range(n)
    out = []
    lab = q.elements.__getitem__
    for p in rng:
        for r in rng:
            imp = q.residuate(p, r)
            if imp != q.neg(q.tensor(p, q.neg(r))):
                out.append({"law": "imp-as-neg-tensor", "witness": (lab(p), lab(r))})
            if imp != q.residuate(q.neg(r), q.neg(p)):
                out.append({"law": "contraposition", "witness": (lab(p), lab(r))})
            tv = q.tensor(p, r)
            if tv != q.neg(q.residuate(r, q.neg(p))):
                out.append({"law": "tensor-as-neg-imp", "witness": (lab(p), lab(r))})
            if tv != q.neg(q.residuate(p, q.neg(r))):
                out.append({"law": "tensor-as-neg-imp-sym", "witness": (lab(p), lab(r))})
    for size in range(1, _NEGATION_FAMILY_SIZE + 1):
        for fam in itertools.combinations(rng, size):
            lhs = q.neg(q.meet_all(fam))
            rhs = q.join_all(q.neg(j) for j in fam)
            if lhs != rhs:
                out.append({"law": "neg-meet-is-join-neg", "witness": tuple(map(lab, fam))})
    return out
