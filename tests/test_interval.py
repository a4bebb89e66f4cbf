"""The sampled interval checks against the full pair scans they replaced.

The checks pick their t-norm once and skip the pairs whose degrees
residuation fixes at exactly 1.0.  The oracles below are the scans as
they were before: every pair, every term, and the t-norm read off its
tag on every call.  Results are compared by repr, so a -0.0 or a
difference in the last digit fails the comparison.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qideal.errors import DecompositionMismatch, ShapeMismatch, ValidationError
from qideal.interval import (
    _CLOSED_FORMS,
    _GENERATION_PROBE,
    _RC_JUMP,
    _RC_PROBE,
    _decomposition_pieces,
    _hom,
    _kernels,
    _probe_decomposition,
    approach_terms,
    classify_sampled,
    generate_interval_ideal,
    interval_dR_scott_closed,
    interval_order,
    interval_quantale,
    irreducible_interval_ideal,
    verify_ordinal_sum_generation,
)
from qideal.suites import run_suite

# the reports of the three grid suites at tolerance 0, less elapsed, as
# the full scans gave them; float rounding fails COR312_FAMILIES and
# EX510_GENERATION there, by deviations of at most 1.1e-14 and 1.0e-12
PINNED = json.loads((Path(__file__).parent / "data" / "interval_tolerance0_reports.json")
                    .read_text(encoding="utf-8"))

PIECES = {"ordinal_sum": ((0.0, 0.5, "lukasiewicz"), (0.5, 1.0, "product")),
          "ordinal_sum_gapped": ((0.25, 0.5, "product"), (0.75, 1.0, "lukasiewicz"))}
TNORMS = ("min", "product", "lukasiewicz", "nilpotent_minimum",
          "ordinal_sum", "ordinal_sum_gapped")
TOLERANCES = (0.0, 1e-9, 0.5)


def quantale(tag, tolerance):
    return interval_quantale("ordinal_sum" if tag in PIECES else tag,
                             pieces=PIECES.get(tag), tolerance=tolerance)


def random_steps(seed, steps=7):
    """A seeded step function, in general neither monotone nor closed."""
    rng = random.Random(seed)
    values = [rng.random() for _ in range(steps)]
    return lambda x: values[min(int(x * steps), steps - 1)]


FUNCTIONS = {
    "identity": lambda x: x,
    "min(1, x+1/4)": lambda x: min(1.0, x + 0.25),
    "min(1, x+1/8)": lambda x: min(1.0, x + 0.125),
    "x**0.5": lambda x: x ** 0.5,
    "step at 1/2": lambda x: 0.0 if x <= 0.5 else 1.0,
    "tent": lambda x: 0.6 - abs(x - 0.5),
    "constant 0": lambda x: 0.0,
    "constant 1/2": lambda x: 0.5,
    "constant 1": lambda x: 1.0,
    **{f"random steps {seed}": random_steps(seed) for seed in range(4)},
}


# --- the oracles: the method bodies and the scans as they were ------------

def old_tensor(q, a, b):
    t = q.tnorm
    if t == "min":
        return a if a < b else b
    if t == "product":
        return a * b
    if t == "lukasiewicz":
        return max(a + b - 1.0, 0.0)
    if t == "nilpotent_minimum":
        return 0.0 if a + b <= 1.0 else min(a, b)
    for lo, hi, kindname in q.pieces:
        if lo <= a <= hi and lo <= b <= hi:
            w = hi - lo
            u, v = (a - lo) / w, (b - lo) / w
            s = max(u + v - 1.0, 0.0) if kindname == "lukasiewicz" else u * v
            return lo + w * s
    return a if a < b else b


def old_residuate(q, a, b):
    if a <= b:
        return 1.0
    t = q.tnorm
    if t == "min":
        return b
    if t == "product":
        return b / a
    if t == "lukasiewicz":
        return min(1.0, 1.0 - a + b)
    if t == "nilpotent_minimum":
        return max(1.0 - a, b)
    for lo, hi, kindname in q.pieces:
        if lo <= a <= hi and lo <= b <= hi:
            w = hi - lo
            u, v = (a - lo) / w, (b - lo) / w
            s = min(1.0, 1.0 - u + v) if kindname == "lukasiewicz" else v / u
            return lo + w * s
    return b


def old_hom(order, a, b):
    if order.which == "dL":
        return old_residuate(order.quantale, a, b)
    return old_residuate(order.quantale, b, a)


def grid_points(grid):
    return [i / (grid - 1) for i in range(grid)]


def old_classify_sampled(order, fn, grid):
    q = order.quantale
    tol = q.tolerance
    pts = grid_points(grid)
    vals = [fn(x) for x in pts]
    lw = uw = None
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            h = old_hom(order, x, y)
            if lw is None and old_tensor(q, vals[j], h) > vals[i] + tol:
                lw = (x, y)
            if uw is None and old_tensor(q, h, vals[i]) > vals[j] + tol:
                uw = (x, y)
        if lw and uw:
            break
    return {"lower": lw is None, "upper": uw is None,
            "inhabited": max(vals) >= 1.0 - tol,
            "witnesses": {"lower": lw, "upper": uw}}


def old_generate(order, terms):
    terms = tuple(float(t) for t in terms)

    def phi(x):
        tail, best = 1.0, 0.0
        for t in reversed(terms):
            tail = min(tail, old_hom(order, x, t))
            best = max(best, tail)
        return best

    return phi


def old_scott_closed(fn, q, grid):
    pts = grid_points(grid)
    tol = q.tolerance
    vals = [fn(x) for x in pts]
    rc_w = next(({"at": x, "jump": jump} for x in pts[:-1]
                 if (jump := abs(fn(min(1.0, x + _RC_PROBE)) - fn(x))) > _RC_JUMP), None)
    op_w = next(({"pair": (x, y), "order_degree": lhs, "image_degree": rhs}
                 for x, fx in zip(pts, vals) for y, fy in zip(pts, vals)
                 if (lhs := old_residuate(q, x, y))
                 > (rhs := old_residuate(q, fx, fy)) + tol), None)
    return {"scott_closed": rc_w is None and op_w is None,
            "right_continuous": rc_w is None,
            "order_preserving": op_w is None,
            "witnesses": {"right_continuity": rc_w,
                          "order_preservation": op_w}}


def old_verify(fn, q, grid):
    tol = q.tolerance
    pieces = _decomposition_pieces(q)
    _probe_decomposition(q, pieces)
    closed = old_scott_closed(fn, q, grid)
    if not closed["scott_closed"]:
        raise ValidationError("generation needs a closed function on the grid",
                              witness=closed["witnesses"])
    pts = grid_points(grid)
    for y in pts:
        if fn(y) < y - tol:
            raise ValidationError("generation needs a function above the "
                                  "identity", witness=(y, fn(y)))

    def family_entry(x):
        fx = fn(x)
        for lo, hi, _ in pieces:
            if lo < x < hi and lo < fx < hi:
                if fx > x + tol:
                    return ("inside-above", fx, old_residuate(q, fx, x))
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
            g = max(c, old_residuate(q, d, y))
            if g < best:
                best = g
        dev = abs(best - fn(y))
        if dev > worst:
            worst, worst_at = dev, y
    members_closed = all(
        old_scott_closed(lambda y, c=c, d=d: max(c, old_residuate(q, d, y)), q,
                         65)["scott_closed"]
        for _, c, d in map(family_entry, (0.0, 0.25, 0.5, 0.75, 1.0)))
    return {"max_deviation": worst, "deviation_at": worst_at,
            "grid": grid, "pieces": pieces,
            "family": sorted((x,) + entries[x] for x in entries),
            "members_closed_on_grid": members_closed}


def outcome(f, *args):
    """repr of f's result, or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValidationError, DecompositionMismatch) as e:
        return f"{type(e).__name__}: {e}"


# --- the kernels ----------------------------------------------------------

def assert_kernels_are_the_method_forms(q, spots):
    tensor, residuate, swapped = _kernels(q)
    orders = [interval_order(q, which) for which in ("dL", "dR")]
    for a in spots:
        for b in spots:
            assert outcome(tensor, a, b) == outcome(old_tensor, q, a, b), (a, b)
            assert outcome(q.tensor, a, b) == outcome(old_tensor, q, a, b), (a, b)
            assert outcome(residuate, a, b) == outcome(old_residuate, q, a, b), (a, b)
            assert outcome(q.residuate, a, b) == outcome(old_residuate, q, a, b), (a, b)
            assert outcome(swapped, a, b) == outcome(old_residuate, q, b, a), (a, b)
            for order in orders:
                assert outcome(order.hom, a, b) == outcome(old_hom, order, a, b)
                assert outcome(_hom(order), a, b) == outcome(old_hom, order, a, b)


@pytest.mark.parametrize("tag", TNORMS)
def test_the_kernels_are_the_method_forms(tag):
    assert_kernels_are_the_method_forms(quantale(tag, 1e-9), (
        -0.5, -0.0, 0.0, 1e-12, 0.1, 0.25, 1 / 3, 0.5, 0.6, 0.75, 0.9, 1.0, 1.5))


# two pieces that share the endpoint 0.45, where the first piece's
# rescaled tensor gives 0.44999999999999996 and the second's 0.45
SHARED_ENDPOINT = ((0.1, 0.45, "lukasiewicz"), (0.45, 0.9, "product"))


@pytest.mark.parametrize("pieces", [*PIECES.values(), SHARED_ENDPOINT],
                         ids=[*PIECES, "shared_endpoint"])
def test_the_ordinal_sum_kernels_at_the_piece_endpoints(pieces):
    """Each endpoint, the floats next to it on both sides, 0 and 1: the
    first piece whose closed square holds both arguments decides."""
    q = interval_quantale("ordinal_sum", pieces=pieces)
    ends = sorted({e for lo, hi, _ in pieces for e in (lo, hi)} | {0.0, 1.0})
    spots = sorted({x for e in ends for x in (math.nextafter(e, -1.0), e,
                                              math.nextafter(e, 2.0))})
    assert_kernels_are_the_method_forms(q, spots)
    if pieces == SHARED_ENDPOINT:
        assert repr(_kernels(q)[0](0.45, 0.45)) == "0.44999999999999996"


def test_only_the_ordinal_sums_build_their_kernels():
    assert set(_CLOSED_FORMS) == {"min", "product", "lukasiewicz", "nilpotent_minimum"}
    assert _kernels(quantale("ordinal_sum", 1e-9)) not in _CLOSED_FORMS.values()
    for tag, kernels in _CLOSED_FORMS.items():
        q = quantale(tag, 1e-9)
        assert _kernels(q) is kernels
        assert _hom(interval_order(q, "dR")) is kernels[2]


# --- the scans ------------------------------------------------------------

@pytest.mark.parametrize("tolerance", TOLERANCES)
@pytest.mark.parametrize("tag", TNORMS)
def test_the_closed_set_check_equals_the_full_scan(tag, tolerance):
    q = quantale(tag, tolerance)
    for desc, fn in FUNCTIONS.items():
        for grid in (17, 33):
            assert repr(interval_dR_scott_closed(fn, q, grid=grid)) == \
                repr(old_scott_closed(fn, q, grid)), (desc, grid)


@pytest.mark.parametrize("tolerance", TOLERANCES)
@pytest.mark.parametrize("tag", TNORMS)
def test_the_sampled_shape_equals_the_full_scan(tag, tolerance):
    q = quantale(tag, tolerance)
    for which in ("dL", "dR"):
        order = interval_order(q, which)
        for desc, fn in FUNCTIONS.items():
            assert repr(classify_sampled(order, fn, grid=17)) == \
                repr(old_classify_sampled(order, fn, 17)), (which, desc)


RUNS = (
    *((a,) for a in (0.0, 0.25, 0.5, 1.0)),
    *(approach_terms(a, "below") for a in (0.25, 1.0)),
    *(approach_terms(a, "above") for a in (0.0, 0.5)),
    (0.3, 0.7), (0.7, 0.3), (0.9, 0.1, 0.5),
    (-0.5, 0.4), (0.4, -0.5), (1.5, 0.2, -0.25), (0.2, 1.7), (-2.0,), (3.0,),
    ("1/3", 0.75),
)


@pytest.mark.parametrize("tag", TNORMS)
def test_a_generated_ideal_equals_the_join_over_tails(tag):
    q = quantale(tag, 1e-9)
    xs = (-0.25, *grid_points(33), 1.25)
    for which in ("dL", "dR"):
        order = interval_order(q, which)
        for run in RUNS:
            terms = [Fraction(t) if isinstance(t, str) else t for t in run]
            if not all(0 <= t <= 1 for t in terms):
                # the join over tails took such a term, and a product
                # residuum could divide by 0.0 at x = 0.0
                with pytest.raises(ShapeMismatch, match=r"outside \[0, 1\]"):
                    generate_interval_ideal(order, terms)
                continue
            new, old = generate_interval_ideal(order, terms), old_generate(order, terms)
            for x in xs:
                assert outcome(new, x) == outcome(old, x), (which, run, x)


def test_a_generated_ideal_is_the_clamped_principal_ideal_of_its_last_term():
    """A term outside [0, 1] is refused wherever it stands in the run, as
    the closed-form families refuse such a parameter; on dL over the
    product t-norm the run (0.4, -0.5) divided by 0.0 at x = 0.0."""
    luk = interval_order(quantale("lukasiewicz", 1e-9), "dL")
    phi = generate_interval_ideal(luk, (1.0, 0.2, 0.6))
    assert [phi(x) for x in (0.0, 0.6, 0.8, 1.0)] == \
        [max(0.0, min(1.0, luk.hom(x, 0.6))) for x in (0.0, 0.6, 0.8, 1.0)]
    product = interval_order(quantale("product", 1e-9), "dL")
    for order, run in ((luk, (1.5, 0.2, 0.6)), (luk, (0.6, -3.0)), (product, (0.4, -0.5)),
                       (product, (float("nan"),))):
        with pytest.raises(ShapeMismatch, match=r"outside \[0, 1\]"):
            generate_interval_ideal(order, run)
    with pytest.raises(ShapeMismatch, match="outside"):
        irreducible_interval_ideal(product.quantale, "dL", -0.5)


@pytest.mark.parametrize("tolerance", TOLERANCES)
@pytest.mark.parametrize("tag", TNORMS)
def test_ordinal_sum_generation_equals_the_full_scan(tag, tolerance):
    q = quantale(tag, tolerance)
    for desc, fn in FUNCTIONS.items():
        assert outcome(verify_ordinal_sum_generation, fn, q, 33) == \
            outcome(old_verify, fn, q, 33), desc


def test_the_generation_check_is_exercised_on_every_decomposing_tnorm():
    """The equality above is not vacuous: each decomposing t-norm rebuilds
    a shift on the grid."""
    for tag in ("min", "product", "lukasiewicz", "ordinal_sum", "ordinal_sum_gapped"):
        rep = verify_ordinal_sum_generation(FUNCTIONS["min(1, x+1/4)"], quantale(tag, 1e-9), 33)
        assert rep["max_deviation"] < 1e-6 and rep["members_closed_on_grid"], tag
    with pytest.raises(DecompositionMismatch):
        verify_ordinal_sum_generation(lambda x: x, quantale("nilpotent_minimum", 1e-9), 33)


# --- the suites at the edge the skips rest on -----------------------------

@pytest.mark.parametrize("name", sorted(PINNED))
def test_tolerance_zero_reports_are_pinned(name):
    report = run_suite(name, tolerance=0).to_json()
    report.pop("elapsed")
    assert json.dumps(report, sort_keys=True) == json.dumps(PINNED[name], sort_keys=True)


def test_tolerance_zero_verdicts_come_from_rounding():
    verdicts = {name: report["verdict"] for name, report in PINNED.items()}
    assert verdicts == {"COR312_FAMILIES": "fail", "EX58_CHARACTERIZATION": "pass",
                        "EX510_GENERATION": "fail"}
    cor312 = PINNED["COR312_FAMILIES"]["witnesses"]
    assert all(0 < w["deviation"] < 1.1e-14 for w in cor312 if "deviation" in w)
    assert all(w["shape"]["lower"] is False for w in cor312 if "deviation" not in w)
    assert 0 < PINNED["EX510_GENERATION"]["details"]["max_deviation"] < 1.1e-12
