"""Acceptance gate: twelve timed criteria, one pass/fail line each.

Each test prints its verdict line (visible under pytest -s or on
failure) and asserts both the claim and the stated wall-clock bound.
"""

import itertools
import random
import time
from fractions import Fraction

from qideal.fuzzy import (
    fuzzy_set,
    intersection_inclusion_identities,
    kan_transport_identity,
)
from qideal.ideals import classify_ideal
from qideal.interval import interval_quantale, verify_ordinal_sum_generation
from qideal.qorder import QMap, build_qorder, random_qorder, standard_qorder
from qideal.quantale import (
    boolean4,
    chain_quantale,
    lukasiewicz_chain,
    negation_law_violations,
    quantale_properties,
    residuation_identity_violations,
)
from qideal.suites import run_suite

SEED = 20260819


def _criterion(num, label, bound, work):
    t0 = time.perf_counter()
    failures = work()
    elapsed = time.perf_counter() - t0
    ok = not failures
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s / limit {bound}s] {label}", flush=True)
    assert ok, failures[:3]
    assert elapsed < bound, f"took {elapsed:.2f}s, limit {bound}s"


def _suite_failures(*specs):
    out = []
    for name, params in specs:
        res = run_suite(name, **params)
        if res.verdict != "pass":
            out.append(res.summary())
    return out


def _closed_chain_battery():
    qs = [boolean4()]
    for tnorm in ("lukasiewicz", "godel", "nilpotent_minimum"):
        for n in range(2, 7):
            qs.append(chain_quantale(tnorm, n=n))
    return qs


def test_criterion_01_residuation_identities():
    def work():
        out = []
        for q in _closed_chain_battery():
            out.extend(residuation_identity_violations(q))
            if quantale_properties(q).has_double_negation:
                out.extend(negation_law_violations(q))
        return out

    _criterion(1, "seven residuation identities and the negation laws",
               1.0, work)


def _all_two_point_orders(q):
    lab = q.elements.__getitem__
    unit = lab(q.unit)
    out = []
    for r01 in q.elements:
        for r10 in q.elements:
            out.append(build_qorder(q, ("x0", "x1"),
                                    ((unit, r01), (r10, unit))))
    return out


def test_criterion_02_degree_identities_and_transport():
    def work():
        out = []
        bases = []
        for q in (lukasiewicz_chain(3), boolean4()):
            bases.extend(_all_two_point_orders(q))
        rng = random.Random(SEED)
        qs = (lukasiewicz_chain(3), boolean4())
        pairs = []
        for k in range(100):
            q = qs[k % 2]
            A = random_qorder(q, rng.randint(1, 3), rng)
            B = random_qorder(q, rng.randint(1, 3), rng)
            f = QMap(A, B, tuple(rng.randrange(B.n) for _ in range(A.n)))
            bases.append(A)
            pairs.append(f)
        for A in bases:
            w = intersection_inclusion_identities(A)
            if w is not None:
                out.append(("identities", A.catalog, w))
        for f in pairs:
            w = kan_transport_identity(f)
            if w is not None:
                out.append(("transport", f.mapping, w))
        return out

    _criterion(2, "intersection/inclusion identities and image adjunction "
               "(32 two-point bases, 100 seeded instances)", 10.0, work)


def test_criterion_03_boolean4_counterexample():
    def work():
        A = standard_qorder(boolean4(), "discrete", n=2)
        rep = classify_ideal(fuzzy_set(A, ("a", "b")))
        if rep.flags() != (True, True, True, False):
            return [rep.flags()]
        return _suite_failures(("BOOLEAN4_COUNTEREXAMPLE", {}))

    _criterion(3, "flat and irreducible without the pointwise property",
               1.0, work)


def test_criterion_04_class_inclusions():
    def work():
        return _suite_failures(
            ("FC_SUBSET_IRR", {}),
            ("FC_SUBSET_FLAT", {}),
            ("IRR_SUBSET_FLAT_PRELINEAR", {}),
            ("FLAT_EQ_IRR_DOUBLENEG", {}),
            ("LINEAR_IRR_EQ_FC", {}),
        )

    _criterion(4, "class inclusions over the exhaustive and seeded batteries",
               60.0, work)


def test_criterion_05_godel_separation():
    def work():
        return _suite_failures(("GODEL_FLAT_NOT_IRR", {}))

    _criterion(5, "min-tensor ideal that is flat but not irreducible",
               5.0, work)


def test_criterion_06_saturation():
    def work():
        return _suite_failures(("SATURATION_FC", {}),
                               ("SATURATION_FLAT", {}),
                               ("SATURATION_IRR", {}))

    _criterion(6, "weighted joins of class weights stay in the class",
               60.0, work)


def test_criterion_07_free_completion():
    def work():
        return _suite_failures(("THM42_FREE", {}))

    _criterion(7, "ideal spaces are complete and continuous, with the "
               "principal embedding as adjoint", 60.0, work)


def test_criterion_08_scott_axioms_and_classical_agreement():
    def work():
        return _suite_failures(("SCOTT_AXIOMS", {"phases": "axioms,classical"}))

    _criterion(8, "open/closed family axioms plus crisp-poset agreement",
               60.0, work)


def test_criterion_09_cocontinuity_equivalence():
    def work():
        return _suite_failures(("PROP57_EQUIV", {}))

    _criterion(9, "cocontinuity equals closed preimages over 54 maps",
               30.0, work)


def test_criterion_10_interval_families():
    def work():
        return _suite_failures(("COR312_FAMILIES", {}),
                               ("EX58_CHARACTERIZATION", {}))

    _criterion(10, "one-parameter ideal families and the sampled "
               "closedness characterization", 5.0, work)


def test_criterion_11_generation_from_the_family():
    def work():
        rep = verify_ordinal_sum_generation(
            lambda x: min(1.0, x + 0.25), interval_quantale("lukasiewicz"),
            grid=257)
        out = [] if rep["max_deviation"] <= 1e-9 else [rep]
        out.extend(_suite_failures(("EX510_GENERATION", {})))
        return out

    _criterion(11, "pointwise infimum of the family rebuilds the function "
               "within 1e-9 on a 257 grid", 5.0, work)


def test_criterion_12_duality():
    def work():
        return _suite_failures(("SCOTT_AXIOMS", {"phases": "duality"}))

    _criterion(12, "closed families are the negated open families under "
               "double negation", 30.0, work)
