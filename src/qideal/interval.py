"""The unit interval: closed-form quantales, their two orders, and the
sampled checks.

Every other module is exact over a finite carrier.  This one alone reads
floats: an interval quantale carries the one tolerance its checks
compare with, set where interval_quantale builds it, and every check
samples a uniform grid of [0, 1] (_grid) plus the probes named below.
A sampled check reports what held on the sample, never a proof.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from numbers import Real
from operator import itemgetter

from ._value import Frozen
from .errors import DecompositionMismatch, GridTooCoarse, ShapeMismatch, ValidationError
from .quantale import QuantaleProps, _closed_forms

DEFAULT_TOLERANCE = 1e-9
# the strict families evaluate _STRICT_PROBE inside their open side; right
# continuity: fn(x + _RC_PROBE) within _RC_JUMP of fn(x); generation samples
# _GENERATION_PROBE right of each grid point and inside each piece
_STRICT_PROBE, _RC_PROBE, _RC_JUMP, _GENERATION_PROBE = 2.0 ** -48, 2.0 ** -32, 1e-4, 1e-12

_INTERVAL_TAGS = ("min", "product", "lukasiewicz", "nilpotent_minimum", "ordinal_sum")
_PIECE_KINDS = ("lukasiewicz", "product")


def _grid(points, minimum=2):
    """points evenly spaced samples of [0, 1], from 0.0 to 1.0; fewer than
    minimum is GridTooCoarse."""
    if points < minimum:
        raise GridTooCoarse(points, minimum)
    return [i / (points - 1) for i in range(points)]


# tag -> (tensor, residuate): the float instance of the closed forms,
# which the methods, the ordinal-sum pieces and every sampled check
# call, so a check picks its t-norm once (_kernels), not on every call
_CLOSED_FORMS = _closed_forms(0.0, 1.0)


def _ordinal_sum_kernels(pieces):
    """(tensor, residuate) of the ordinal sum of pieces, each piece's
    width and closed forms resolved once.  Two arguments in a piece's
    closed square take its closed form rescaled to the square, the first
    such piece in order where two squares share an endpoint; anywhere
    else the tensor is min and the residuum of a > b is b.  The checks
    build these once; a method call builds them anew."""
    spans = tuple((lo, hi, hi - lo, *_CLOSED_FORMS[kindname]) for lo, hi, kindname in pieces)
    min_tensor, min_residuate = _CLOSED_FORMS["min"]

    def tensor(a, b):
        for lo, hi, w, piece, _ in spans:
            if lo <= a <= hi and lo <= b <= hi:
                return lo + w * piece((a - lo) / w, (b - lo) / w)
        return min_tensor(a, b)

    def residuate(a, b):
        # exactly 1.0, which a rescaled piece need not give
        if a <= b:
            return 1.0
        for lo, hi, w, _, piece in spans:
            if lo <= a <= hi and lo <= b <= hi:
                # a > b >= lo forces u = (a - lo) / w > 0
                return lo + w * piece((a - lo) / w, (b - lo) / w)
        return min_residuate(a, b)

    return tensor, residuate


class IntervalQuantale(Frozen, fields="tnorm pieces tolerance"):
    """The unit interval under a catalog t-norm, closed-form residuation.

    ``pieces`` is only used by the ordinal-sum tag: disjoint open
    intervals (lo, hi) with idempotent endpoints, each carrying a
    rescaled Lukasiewicz or product t-norm; outside the closed squares
    the tensor is min.  The sampled checks compare with ``tolerance``.
    """

    def __init__(self, tnorm, pieces=(), tolerance=DEFAULT_TOLERANCE):
        self._init(tnorm, pieces, tolerance)

    def tensor(self, a, b):
        return _kernels(self)[0](a, b)

    def residuate(self, a, b):
        return _kernels(self)[1](a, b)

    def neg(self, a):
        return self.residuate(a, 0.0)


def _kernels(q):
    """(tensor, residuate) of q as plain two-argument functions: its
    closed form, or its ordinal sum's built from its pieces' closed
    forms."""
    return _CLOSED_FORMS.get(q.tnorm) or _ordinal_sum_kernels(q.pieces)


def interval_quantale(tnorm, pieces=None, tolerance=None):
    """Build a unit-interval quantale from the t-norm catalog.  tolerance
    (None for DEFAULT_TOLERANCE) must be a finite real >= 0."""
    if tnorm not in _INTERVAL_TAGS:
        raise ValueError(f"unknown interval t-norm {tnorm!r}")
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCE
    elif (isinstance(tolerance, bool) or not isinstance(tolerance, Real)
          or not 0 <= tolerance <= sys.float_info.max):
        raise ValueError(f"tolerance must be a finite real >= 0, got {tolerance!r}")
    ps = ()
    if tnorm == "ordinal_sum":
        cleaned = []
        for piece in (pieces or ()):
            try:
                lo, hi, kindname = piece
                lo, hi = (float(Fraction(v) if isinstance(v, str) else v) for v in (lo, hi))
            except (TypeError, ValueError):
                raise ShapeMismatch('each entry of "pieces" must be [lo, hi, kind] with '
                                    'numeric ends', witness=(piece,)) from None
            if kindname not in _PIECE_KINDS:
                raise ShapeMismatch("unknown ordinal-sum piece kind", witness=(kindname,))
            if not (0.0 <= lo < hi <= 1.0):
                raise ShapeMismatch("piece endpoints out of order", witness=(lo, hi))
            cleaned.append((lo, hi, kindname))
        cleaned.sort()
        for (_, last, _), (lo, hi, _) in zip(cleaned, cleaned[1:]):
            if lo < last:
                raise ShapeMismatch("pieces overlap", witness=(lo, hi))
        ps = tuple(cleaned)
    elif pieces:
        raise ShapeMismatch("pieces are only meaningful for ordinal sums")
    return IntervalQuantale(tnorm, ps, float(tolerance))


def _require_interval(q):
    if not isinstance(q, IntervalQuantale):
        raise ShapeMismatch("the unit interval needs an interval quantale",
                            witness=(type(q).__name__,))


# is_divisible, has_double_negation, is_archimedean and idempotents of the
# single t-norms; the idempotents of nilpotent minimum, {0} and (1/2, 1],
# are not a finite set
_CATALOG = {"min": (True, False, False, None),
            "product": (True, False, True, (0.0, 1.0)),
            "lukasiewicz": (True, True, True, (0.0, 1.0)),
            "nilpotent_minimum": (False, True, False, None)}


def interval_properties(q):
    """quantale_properties of an interval quantale: analytic catalog facts
    (idempotents None when the set is not finite).  An ordinal sum's
    idempotents are its piece endpoints when the pieces cover [0, 1]."""
    if q.tnorm in _CATALOG:
        div, dn, arch, idem = _CATALOG[q.tnorm]
    else:
        single_full = len(q.pieces) == 1 and q.pieces[0][:2] == (0.0, 1.0)
        div, dn, arch = True, single_full and q.pieces[0][2] == "lukasiewicz", single_full
        ends = [0.0, *(x for lo, hi, _ in q.pieces for x in (lo, hi)), 1.0]
        # covered when each piece starts where the last one ended
        idem = tuple(sorted(set(ends))) if ends[0::2] == ends[1::2] else None
    return QuantaleProps(
        is_integral=True, is_commutative=True, is_prelinear=True,
        is_divisible=div, has_double_negation=dn, is_archimedean=arch,
        idempotents=idem, is_meet_continuous=True,
        is_dually_meet_continuous=True)


def check_adjunction_sampled(q, grid=65):
    """Sampled adjunction check on an interval quantale.

    For triples on a uniform grid: whenever one side of
    p & s <= r  iff  s <= p -> r  holds with slack q.tolerance, the
    other side must hold up to the same slack.  Returns (ok, witness).
    """
    tol = q.tolerance
    tensor, residuate = _kernels(q)
    pts = _grid(grid)
    for p in pts:
        res_row = [residuate(p, r) for r in pts]
        for s in pts:
            tv = tensor(p, s)
            for r, res in zip(pts, res_row):
                if (tv <= r - tol and s > res + tol) or (s <= res - tol and tv > r + tol):
                    return False, {"triple": (p, s, r), "tensor": tv, "residuum": res}
    return True, None


class IntervalOrder(Frozen, fields="quantale which"):
    """The unit interval under one of its two canonical orders.  which =
    "dL": hom(p,r) = p -> r; "dR": hom(p,r) = r -> p."""

    def __init__(self, quantale, which):
        self._init(quantale, which)

    def hom(self, a, b):
        return _hom(self)(a, b)


def interval_order(q, which):
    if which not in ("dL", "dR"):
        raise ValueError(f"unknown interval order {which!r}")
    return IntervalOrder(q, which)


def _hom(order):
    """order.hom as a plain two-argument function, dL or dR chosen once:
    the residuum for dL, the residuum with its arguments swapped for dR.
    The only place that knows dR's argument order."""
    residuate = _kernels(order.quantale)[1]
    return residuate if order.which == "dL" else lambda a, b: residuate(b, a)


def classify_sampled(order, fn, grid=129):
    """Grid-sampled lower/upper/inhabited flags for a function on an
    interval order.  Same shape of answer as classify_fuzzy_set, with
    float witnesses."""
    tol = order.quantale.tolerance
    tensor, hom = _kernels(order.quantale)[0], _hom(order)
    pts = _grid(grid)
    vals = [fn(x) for x in pts]
    lw = uw = None
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            h = hom(x, y)
            if lw is None and tensor(vals[j], h) > vals[i] + tol:
                lw = (x, y)
            if uw is None and tensor(h, vals[i]) > vals[j] + tol:
                uw = (x, y)
        if lw and uw:
            break
    return {
        "lower": lw is None,
        "upper": uw is None,
        "inhabited": max(vals) >= 1.0 - tol,
        "witnesses": {"lower": lw, "upper": uw},
    }


def irreducible_interval_ideal(q, which, a, strict=False):
    """Closed-form ideal families on the interval orders.

    Both are x -> hom(x, a) on the order which names (_hom).  which dL:
    x -> res(x, a); the strict variant is the join over b < a (needs
    a > 0).  which dR: x -> res(a, x); strict joins over b > a (needs
    a < 1).  Strict joins are evaluated by a probe 2**-48 inside the
    open side, well under sampling tolerances.
    """
    _require_interval(q)
    if not 0.0 <= a <= 1.0:
        raise ShapeMismatch(f"family parameter {a} lies outside [0, 1]")
    if which == "dL":
        if strict and a <= 0.0:
            raise ShapeMismatch("the strict family on dL needs a > 0")
        b = a - _STRICT_PROBE if strict else a
    elif which == "dR":
        if strict and a >= 1.0:
            raise ShapeMismatch("the strict family on dR needs a < 1")
        b = a + _STRICT_PROBE if strict else a
    else:
        raise ValueError(f"unknown interval order tag {which!r}")
    hom = _hom(IntervalOrder(q, which))
    return lambda x: hom(x, b)


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
    order: the join over tail starts of the meet over the tail, clamped
    to [0, 1].

    A tail's meet only falls as its start moves left, so the join is the
    meet of the shortest tail, the last term alone: a finite run
    generates y(last term), x -> hom(x, last), clamped to [0, 1].  It
    tests the last term, not a limit; callers pick terms whose last one
    lies within their tolerance of what they compare with.  A term
    outside [0, 1] is refused, as the closed-form families refuse such
    a parameter."""
    terms = tuple(float(t) for t in terms)
    if not terms:
        raise ShapeMismatch("need at least one sequence term")
    bad = next((t for t in terms if not 0.0 <= t <= 1.0), None)
    if bad is not None:
        raise ShapeMismatch(f"sequence term {bad} lies outside [0, 1]")
    hom, last = _hom(order), terms[-1]
    return lambda x: max(0.0, min(1.0, hom(x, last)))


def interval_dR_scott_closed(fn, q, grid=257):
    """Grid check of the closed-set characterization on the interval
    order dR: fn must be right continuous (probe-based) and
    order-preserving as a self-map of the interval under dL.  Sampled,
    not a proof."""
    _require_interval(q)
    pts = _grid(grid, 17)
    tol = q.tolerance
    residuate = _kernels(q)[1]
    vals = [fn(x) for x in pts]
    rc_w = next(({"at": x, "jump": jump} for x, fx in zip(pts[:-1], vals)
                 if (jump := abs(fn(min(1.0, x + _RC_PROBE)) - fx)) > _RC_JUMP), None)
    # a pair with x <= y and fx <= fy has both degrees exactly 1.0, and
    # 1.0 > 1.0 + tol never holds for a tolerance >= 0: it is skipped
    op_w = next(({"pair": (x, y), "order_degree": lhs, "image_degree": rhs}
                 for x, fx in zip(pts, vals) for y, fy in zip(pts, vals)
                 if not (x <= y and fx <= fy)
                 and (lhs := residuate(x, y)) > (rhs := residuate(fx, fy)) + tol), None)
    return {"scott_closed": rc_w is None and op_w is None,
            "right_continuous": rc_w is None,
            "order_preserving": op_w is None,
            "witnesses": {"right_continuity": rc_w,
                          "order_preservation": op_w}}


def _decomposition_pieces(q):
    if q.tnorm in ("min", "nilpotent_minimum"):
        return ()
    if q.tnorm in ("product", "lukasiewicz"):
        return ((0.0, 1.0, q.tnorm),)
    return q.pieces


def _probe_decomposition(q, pieces):
    """Endpoints of every piece and midpoints of every gap must be
    idempotent, otherwise the claimed min-outside/piece-inside shape is
    wrong for this tensor."""
    tol = q.tolerance
    spots = []
    prev = 0.0
    for lo, hi, _ in pieces:
        spots.extend((lo, hi))
        if lo - prev > 4 * tol:
            spots.append((prev + lo) / 2.0)
        prev = hi
    if 1.0 - prev > 4 * tol:
        spots.append((prev + 1.0) / 2.0)
    spots.extend((0.0, 1.0))
    for e in spots:
        t = q.tensor(e, e)
        if abs(t - e) > tol:
            raise DecompositionMismatch(
                "decomposition point is not idempotent",
                witness=e, detail=f"{e} & {e} = {t}")


def verify_ordinal_sum_generation(fn, q, grid=257):
    """Rebuild a closed fn >= id as the pointwise infimum of the
    one-parameter family c v (d -> y) dictated by the piece structure of
    the tensor, and report the worst grid deviation.

    The x-sample augments the grid with just-inside piece endpoints and,
    per evaluation point y, y and y + _GENERATION_PROBE: the infimum is
    typically approached, not attained, immediately to the right of y.
    """
    _require_interval(q)
    tol = q.tolerance
    residuate = _kernels(q)[1]
    pieces = _decomposition_pieces(q)
    _probe_decomposition(q, pieces)
    closed = interval_dR_scott_closed(fn, q, grid=grid)
    if not closed["scott_closed"]:
        raise ValidationError("generation needs a closed function on the grid",
                              witness=closed["witnesses"])
    pts = _grid(grid)
    for y in pts:
        if fn(y) < y - tol:
            raise ValidationError("generation needs a function above the "
                                  "identity", witness=(y, fn(y)))

    def family_entry(x):
        fx = fn(x)
        for lo, hi, _ in pieces:
            if lo < x < hi and lo < fx < hi:
                if fx > x + tol:
                    return ("inside-above", fx, residuate(fx, x))
                return ("inside-diagonal", fx, hi)
        return ("outside", fx, x)

    xs = list(pts)
    for lo, hi, _ in pieces:
        xs.extend((min(hi, lo + _GENERATION_PROBE), max(lo, hi - _GENERATION_PROBE)))
    entries = {x: family_entry(x) for x in xs}
    # an entry with d <= y gives max(c, 1.0) >= 1.0, never below best,
    # which starts at 1.0: each y scans only the entries with d > y, and
    # a minimum does not depend on the order of the scan
    by_d = sorted((entry[1:] for entry in entries.values()), key=itemgetter(1))
    ds = [d for _, d in by_d]

    worst, worst_at = 0.0, None
    for y in pts:
        extra = (y, min(1.0, y + _GENERATION_PROBE))
        entries.update((x, family_entry(x)) for x in extra if x not in entries)
        best = 1.0
        for c, d in chain(by_d[bisect_right(ds, y):], (entries[x][1:] for x in extra)):
            g = max(c, residuate(d, y))
            if g < best:
                best = g
        dev = abs(best - fn(y))
        if dev > worst:
            worst, worst_at = dev, y

    members_closed = all(
        interval_dR_scott_closed(lambda y, c=c, d=d: max(c, residuate(d, y)), q,
                                 grid=65)["scott_closed"]
        for _, c, d in map(family_entry, (0.0, 0.25, 0.5, 0.75, 1.0)))
    return {"max_deviation": worst, "deviation_at": worst_at,
            "grid": grid, "pieces": pieces,
            "family": sorted((x,) + entries[x] for x in entries),
            "members_closed_on_grid": members_closed}
