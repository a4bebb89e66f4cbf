"""Scott-style open and closed fuzzy sets for an ideal class.

An upper set is open when its value at every supremum of a class ideal
equals its intersection degree with the ideal; a lower set is closed
when its value there equals the inclusion degree of the ideal into it.
The open sets form a topology-like family (constants, binary meets,
joins), the closed sets a cotopology-like family, and each membership
test quantifies over every supremum so non-separated bases are handled.

Interval-backed checks at the end are grid-plus-probe approximations:
they report what held on the sample, never a proof.
"""

from __future__ import annotations

from operator import getitem

from ._value import Value
from .errors import (
    DecompositionMismatch,
    GridTooCoarse,
    ShapeMismatch,
    ValidationError,
    _charge,
)
from .fuzzy import (
    FuzzySet,
    _fuzzy_sets,
    _lower_violation,
    _memoized,
    _monotone_value_tuples,
    _sub_idx,
    _tensor_idx,
    _upper_violation,
    suprema,
    transport,
)
from .ideals import enumerate_ideals, ideal_class_tag

_MODE_ALIASES = {"topology": "topology", "top": "topology",
                 "cotopology": "cotopology", "cotop": "cotopology"}


def _mode_tag(mode):
    try:
        return _MODE_ALIASES[str(mode).lower()]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}; use topology or cotopology") from None


def _default_class(mode):
    return "flat" if mode == "topology" else "irreducible"


def _scott_context(A, tag, budget):
    """The class ideals of A that have a supremum and are not principal,
    with all their suprema (as indices), in enumeration order; memoized
    per base and class with the charges of its build.  A principal ideal
    passes every test, so it is left out.  For a supremum s of phi, phi
    <= y(s) = A(-, s) as sub(phi, y(s)) = A(s, s) = 1, and if phi(s) = 1
    then phi >= phi(s) & y(s), so phi = y(s) (suprema are isomorphic, so
    one is tested).  An upper psi has sup_x A(x, s) & psi(x) = psi(s):
    the term x = s gives >=, upperness <=; a lower psi has inf_x A(x, s)
    -> psi(x) = psi(s).  Along an order-preserving f the forward image
    of y(s) is y(f(s)), whose suprema contain f(s)."""
    unit = A.quantale.unit

    def build():
        out = []
        for p in enumerate_ideals(A, tag, budget=budget):
            sups = tuple(map(A.index, suprema(p)))
            if sups and p.values[sups[0]] != unit:
                out.append((p.values, sups))
        return tuple(out)
    return _memoized(A, ("scott", tag), build, budget)


def _member_violation(A, vals, mode, ctx):
    """The shape test of any value tuple, then _equation_violation."""
    w = (_upper_violation if mode == "topology" else _lower_violation)(A, vals)
    if w is None:
        return _equation_violation(A, vals, mode, ctx)
    shape = "an upper" if mode == "topology" else "a lower"
    return {"reason": f"not {shape} set", "pair": (A.elements[w[0]], A.elements[w[1]])}


def _equation_violation(A, vals, mode, ctx):
    """The first (ideal, supremum) of ctx whose open (closed) equation
    the upper (lower) set vals misses, as a witness, or None."""
    q = A.quantale
    degree, key = ((_tensor_idx, "tensor_degree") if mode == "topology"
                   else (_sub_idx, "sub_degree"))
    for ivals, sups in ctx:
        d = degree(A, ivals, vals)
        for s in sups:
            if vals[s] != d:
                return {"reason": "misses the supremum equation",
                        "ideal": FuzzySet(A, ivals).as_dict(),
                        "supremum": A.elements[s],
                        "at_supremum": q.elements[vals[s]],
                        key: q.elements[d]}
    return None


def is_scott_member(psi, mode, which=None, budget=None):
    """Membership of a fuzzy set in the open (mode topology) or closed
    (mode cotopology) family for the given ideal class.  The class
    defaults to flat for opens and irreducible for closeds.  Returns
    (flag, witness)."""
    mode = _mode_tag(mode)
    tag = ideal_class_tag(which if which is not None else _default_class(mode))
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


# per mode: the five axiom names, the tables of the two closure axioms
# and those of the two scaling axioms
_AXIOMS = {"topology": (("O1", "O2", "O3", "O4", "O5"), ("meet_table", "join_table"),
                        ("tensor_table", "res_table")),
           "cotopology": (("C1", "C2", "C3", "C4", "C5"), ("join_table", "meet_table"),
                          ("res_table", "tensor_table"))}


def generate_scott_structure(A, mode, which=None, budget=None):
    """Filter every monotone fuzzy set by membership and compute the
    axiom flags of the resulting family.  The filter and the axiom
    checks each charge their work against the budget before they start
    (see _member_values and check_structure_axioms)."""
    mode = _mode_tag(mode)
    tag = ideal_class_tag(which if which is not None else _default_class(mode))
    members = _fuzzy_sets(A, _member_values(A, mode, tag, budget))
    axioms = _axiom_report(A, mode, members, budget)["flags"]
    stratified, co_stratified = (axioms[name] for name in _AXIOMS[mode][0][3:])
    return ScottStructure(A, mode, tag, members, axioms, stratified, co_stratified,
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
    return _axiom_report(S.base, S.mode, S.members, budget)


def _axiom_report(A, mode, members, budget):
    """check_structure_axioms on the base, mode and members of a family."""
    q = A.quantale
    vecs = [p.values for p in members]
    kind = "upper" if mode == "topology" else "lower"
    universe = set(_monotone_value_tuples(A, kind, budget))
    for v in vecs:
        if v not in universe:
            raise ValidationError(f"member is not a fuzzy {kind} set of the base",
                                  witness=FuzzySet(A, v).as_dict())
    have = set(vecs)
    names, closures, scalings = _AXIOMS[mode]
    if len(have) == len(universe):
        return {"flags": dict.fromkeys(names, True), "witnesses": {}}
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
              *(next(closure_misses(getattr(q, t)), None) for t in closures),
              *(next(scaling_misses(getattr(q, t)), None) for t in scalings))
    return {"flags": {name: w is None for name, w in zip(names, misses)},
            "witnesses": {name: w for name, w in zip(names, misses) if w is not None}}


def _member_values(B, mode, tag, budget):
    """Value tuples of the members of B's open (closed) family, in
    enumeration order.  Each upper (lower) set of the walk is tested on
    the equations of every ideal of the context; those (set, ideal)
    pairs are charged against the budget before any is tested."""
    ctx = _scott_context(B, tag, budget)
    sets = _monotone_value_tuples(B, "upper" if mode == "topology" else "lower",
                                  budget)
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
    if cocontinuous:
        for ivals, sups in _scott_context(A, tag, budget):
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
    bad = _preimage_violation(f, "cotopology", tag, budget)
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
    bad = _preimage_violation(f, "topology", ideal_class_tag(which), budget)
    if bad is None:
        return True, None
    return False, {"open_set": bad[0], "violation": bad[1]}


def _preimage_violation(f, mode, tag, budget):
    """The first member of the target's open (closed) family, by mode,
    whose composite with f is not open (closed) on the source: its label
    dict and the membership violation, or None."""
    ctxA = _scott_context(f.source, tag, budget)
    for vals in _member_values(f.target, mode, tag, budget):
        pulled = tuple(vals[j] for j in f.mapping)
        v = _member_violation(f.source, pulled, mode, ctxA)
        if v is not None:
            return FuzzySet(f.target, vals).as_dict(), v
    return None


# right continuity: fn(x + _RC_PROBE) within _RC_JUMP of fn(x); generation
# samples _GENERATION_PROBE right of each grid point and inside each piece
_RC_PROBE, _RC_JUMP, _GENERATION_PROBE = 2.0 ** -32, 1e-4, 1e-12


def interval_dR_scott_closed(fn, q, grid=257, tolerance=None):
    """Grid check of the closed-set characterization on the interval
    order dR: fn must be right continuous (probe-based) and
    order-preserving as a self-map of the interval under dL.  Sampled,
    not a proof."""
    if getattr(q, "kind", None) != "interval":
        raise ShapeMismatch("the characterization lives on the interval backend")
    if grid < 17:
        raise GridTooCoarse(grid)
    tol = q.tolerance if tolerance is None else tolerance
    pts = [i / (grid - 1) for i in range(grid)]
    vals = [fn(x) for x in pts]
    rc_w = next(({"at": x, "jump": jump} for x in pts[:-1]
                 if (jump := abs(fn(min(1.0, x + _RC_PROBE)) - fn(x))) > _RC_JUMP), None)
    op_w = next(({"pair": (x, y), "order_degree": lhs, "image_degree": rhs}
                 for x, fx in zip(pts, vals) for y, fy in zip(pts, vals)
                 if (lhs := q.residuate(x, y)) > (rhs := q.residuate(fx, fy)) + tol), None)
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


def _probe_decomposition(q, pieces, tol):
    """Endpoints of every piece and midpoints of every gap must be
    idempotent, otherwise the claimed min-outside/piece-inside shape is
    wrong for this tensor."""
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


def verify_ordinal_sum_generation(fn, q, grid=257, tolerance=None):
    """Rebuild a closed fn >= id as the pointwise infimum of the
    one-parameter family c v (d -> y) dictated by the piece structure of
    the tensor, and report the worst grid deviation.

    The x-sample augments the grid with just-inside piece endpoints and,
    per evaluation point y, y and y + _GENERATION_PROBE: the infimum is
    typically approached, not attained, immediately to the right of y.
    """
    if getattr(q, "kind", None) != "interval":
        raise ShapeMismatch("generation check lives on the interval backend")
    tol = q.tolerance if tolerance is None else tolerance
    pieces = _decomposition_pieces(q)
    _probe_decomposition(q, pieces, tol)
    closed = interval_dR_scott_closed(fn, q, grid=grid, tolerance=tol)
    if not closed["scott_closed"]:
        raise ValidationError("generation needs a closed function on the grid",
                              witness=closed["witnesses"])
    pts = [i / (grid - 1) for i in range(grid)]
    for y in pts:
        if fn(y) < y - tol:
            raise ValidationError("generation needs a function above the "
                                  "identity", witness=(y, fn(y)))

    def family_entry(x):
        fx = fn(x)
        for lo, hi, _ in pieces:
            if lo < x < hi and lo < fx < hi:
                if fx > x + tol:
                    return ("inside-above", fx, q.residuate(fx, x))
                return ("inside-diagonal", fx, hi)
        return ("outside", fx, x)

    xs = list(pts)
    for lo, hi, _ in pieces:
        xs.extend((min(hi, lo + _GENERATION_PROBE), max(lo, hi - _GENERATION_PROBE)))
    entries = {x: family_entry(x) for x in xs}

    worst, worst_at = 0.0, None
    for y in pts:
        extra = (y, min(1.0, y + _GENERATION_PROBE))
        entries.update((x, family_entry(x)) for x in extra if x not in entries)
        best = 1.0
        for x in xs + list(extra):
            _, c, d = entries[x]
            g = max(c, q.residuate(d, y))
            if g < best:
                best = g
        dev = abs(best - fn(y))
        if dev > worst:
            worst, worst_at = dev, y

    members_closed = all(
        interval_dR_scott_closed(lambda y, c=c, d=d: max(c, q.residuate(d, y)), q,
                                 grid=65, tolerance=tol)["scott_closed"]
        for _, c, d in map(family_entry, (0.0, 0.25, 0.5, 0.75, 1.0)))
    return {"max_deviation": worst, "deviation_at": worst_at,
            "grid": grid, "pieces": pieces,
            "family": sorted((x,) + entries[x] for x in entries),
            "members_closed_on_grid": members_closed}
