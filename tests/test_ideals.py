"""Ideal classes: deciders, witnesses, sequences, and interval families."""

import itertools
from fractions import Fraction

import pytest

from qideal import ideals
from qideal.errors import (
    BudgetExceeded,
    NotForwardCauchy,
    ShapeMismatch,
)
from qideal.fuzzy import fuzzy_set, sub_degree, yoneda
from qideal.ideals import (
    EventuallyPeriodicSequence,
    classify_ideal,
    enumerate_ideals,
    ideal_class_tag,
    ideal_from_sequence,
    periodic_sequence,
    settling_violation,
)
from qideal.interval import (
    approach_terms,
    generate_interval_ideal,
    interval_order,
    interval_quantale,
    irreducible_interval_ideal,
)
from qideal.qorder import crisp_qorder, standard_qorder
from qideal.quantale import boolean4, godel_chain, lukasiewicz_chain
from test_enumeration import fc_walk_oracle

L3 = lukasiewicz_chain(3)
DL3 = standard_qorder(L3, "dL")


def two_chain(q):
    return crisp_qorder(q, ("a", "b"), ((True, True), (False, True)))


def test_class_tags():
    assert ideal_class_tag("irr") == "irreducible"
    assert ideal_class_tag("FC") == "fc"
    assert ideal_class_tag("Flat") == "flat"
    assert ideal_class_tag("lower") == "lower"
    with pytest.raises(ValueError):
        ideal_class_tag("prime")


def test_boolean4_two_point_separation():
    # flat and irreducible both hold while the pointwise decider fails
    q = boolean4()
    A = standard_qorder(q, "discrete", n=2)
    rep = classify_ideal(fuzzy_set(A, ("a", "b")))
    assert rep.flags() == (True, True, True, False)
    assert rep.witnesses["forward_cauchy"]["pair"] == ("x0", "x0")


def test_godel_flat_but_not_irreducible():
    q = godel_chain(5)
    A = standard_qorder(q, "dL")
    b, a = Fraction(1, 2), Fraction(1, 4)
    lab = q.elements.__getitem__
    phi = fuzzy_set(A, [lab(q.join(q.index(b), q.res_table[q.index(x)][q.index(a)]))
                        for x in A.elements])
    rep = classify_ideal(phi)
    assert rep.flat and not rep.irreducible and not rep.forward_cauchy
    # the irreducibility witness recomputes to a strict violation
    w = rep.witnesses["irreducible"]
    phi1 = fuzzy_set(A, w["phi1"])
    phi2 = fuzzy_set(A, w["phi2"])
    join = fuzzy_set(A, [lab(q.join(i, j))
                         for i, j in zip(phi1.values, phi2.values)])
    assert sub_degree(phi, join) == w["sub_of_join"]
    assert q.elements[q.join(q.index(sub_degree(phi, phi1)),
                             q.index(sub_degree(phi, phi2)))] == w["join_of_subs"]
    assert w["sub_of_join"] != w["join_of_subs"]


@pytest.mark.parametrize("A", [
    DL3,
    standard_qorder(godel_chain(4), "dL"),
    two_chain(boolean4()),
])
def test_forward_cauchy_ideals_are_exactly_principal(A):
    decided = tuple(phi.values for phi in enumerate_ideals(A, "fc"))
    principal = tuple(sorted({yoneda(A, a).values for a in A.elements}))
    assert decided == principal


def test_enumerate_ideals_nesting():
    lowers = enumerate_ideals(DL3, "lower")
    flats = enumerate_ideals(DL3, "flat")
    irrs = enumerate_ideals(DL3, "irr")
    fcs = enumerate_ideals(DL3, "fc")
    assert {p.values for p in fcs} <= {p.values for p in irrs}
    assert {p.values for p in irrs} <= {p.values for p in flats}
    assert {p.values for p in flats} < {p.values for p in lowers}


def test_sequence_terms_and_settling():
    A = two_chain(L3)
    s = periodic_sequence(A, cycle=("b",), prefix=("a", "a"))
    assert [s.term(k) for k in range(4)] == ["a", "a", "b", "b"]
    assert s.describe() == {"prefix": ("a", "a"), "cycle": ("b",)}
    assert settling_violation(s) is None
    # a cycle that keeps dropping back never settles
    osc = periodic_sequence(A, cycle=("a", "b"))
    assert settling_violation(osc) is not None
    with pytest.raises(NotForwardCauchy) as err:
        ideal_from_sequence(osc)
    assert "does not settle" in str(err.value)
    with pytest.raises(ShapeMismatch):
        periodic_sequence(A, cycle=())


def test_generated_ideal_ignores_the_prefix():
    A = two_chain(L3)
    plain = ideal_from_sequence(periodic_sequence(A, cycle=("b",)))
    detoured = ideal_from_sequence(periodic_sequence(A, cycle=("b",),
                                                     prefix=("b", "a", "a")))
    assert plain.values == detoured.values
    assert plain.values == yoneda(A, "b").values


def sequence_generated_ideals(A, bound):
    """The paper's sequence route to forward-Cauchy ideals: the value
    tuples of the lower sets generated by every settling eventually
    periodic sequence whose prefix plus one period has at most bound
    terms, distinct and sorted."""
    seen = set()
    for total in range(1, bound + 1):
        for cut in range(total):
            for pre in itertools.product(range(A.n), repeat=cut):
                for cyc in itertools.product(range(A.n), repeat=total - cut):
                    s = EventuallyPeriodicSequence(A, pre, cyc)
                    if settling_violation(s) is None:
                        seen.add(ideal_from_sequence(s).values)
    return tuple(sorted(seen))


def test_sequence_route_matches_the_decider():
    for A in (two_chain(L3), standard_qorder(boolean4(), "discrete", n=2), DL3):
        decided = tuple(phi.values for phi in enumerate_ideals(A, "fc"))
        assert sequence_generated_ideals(A, 3) == decided == fc_walk_oracle(A), A.catalog
    assert len(sequence_generated_ideals(DL3, 3)) == DL3.n


def test_ideal_preconditions_are_reported():
    A = two_chain(L3)
    keys = ("flat", "irreducible", "forward_cauchy")
    rep = classify_ideal(fuzzy_set(A, {"a": 0, "b": 1}))
    assert rep.flags()[1:] == (False, False, False)
    assert [rep.witnesses[key]["reason"] for key in keys] == ["not a lower set"] * 3
    rep = classify_ideal(fuzzy_set(A, {"a": Fraction(1, 2), "b": 0}))
    assert rep.flags() == (False, False, False, False)
    assert [rep.witnesses[key] for key in keys] == [
        {"reason": "not inhabited", "join_of_values": Fraction(1, 2)}] * 3


def test_principal_ideals_check_every_class():
    for a in DL3.elements:
        rep = classify_ideal(yoneda(DL3, a))
        assert rep.flags() == (True, True, True, True)
        assert rep.witnesses == {}


def test_budget_guards():
    # classify_ideal charges flat first; _irreducible charges on its own
    with pytest.raises(BudgetExceeded):
        classify_ideal(yoneda(DL3, Fraction(1)), budget=2)
    with pytest.raises(BudgetExceeded):
        ideals._irreducible(yoneda(DL3, Fraction(1)), budget=2)


def test_interval_family_values():
    q = interval_quantale("lukasiewicz")
    plain = irreducible_interval_ideal(q, "dL", 0.5)
    assert plain(0.75) == pytest.approx(0.75)
    assert plain(0.25) == 1.0
    mirrored = irreducible_interval_ideal(q, "dR", 0.5)
    assert mirrored(0.25) == pytest.approx(0.75)
    assert mirrored(0.75) == 1.0
    strict = irreducible_interval_ideal(q, "dL", 0.5, strict=True)
    assert strict(0.5) < 1.0
    assert 1.0 - strict(0.5) < 1e-9


def test_interval_family_guards():
    q = interval_quantale("lukasiewicz")
    with pytest.raises(ShapeMismatch):
        irreducible_interval_ideal(L3, "dL", 0.5)
    with pytest.raises(ShapeMismatch):
        irreducible_interval_ideal(q, "dL", 1.5)
    with pytest.raises(ShapeMismatch):
        irreducible_interval_ideal(q, "dL", 0.0, strict=True)
    with pytest.raises(ShapeMismatch):
        irreducible_interval_ideal(q, "dR", 1.0, strict=True)
    with pytest.raises(ValueError):
        irreducible_interval_ideal(q, "diag", 0.5)


def test_approach_terms():
    below = approach_terms(0.5, "below", count=8)
    assert all(t < 0.5 for t in below)
    assert all(a < b for a, b in zip(below, below[1:]))
    above = approach_terms(0.5, "above", count=8)
    assert all(t > 0.5 for t in above)
    assert all(a > b for a, b in zip(above, above[1:]))
    with pytest.raises(ValueError):
        approach_terms(0.5, "around")


@pytest.mark.parametrize("tnorm", ["lukasiewicz", "product"])
@pytest.mark.parametrize("which,a", [("dL", 0.5), ("dR", 0.25)])
def test_generated_interval_ideals_match_the_families(tnorm, which, a):
    q = interval_quantale(tnorm)
    order = interval_order(q, which)
    grid = [i / 64 for i in range(65)]
    plain = irreducible_interval_ideal(q, which, a)
    generated = generate_interval_ideal(order, [a])
    assert max(abs(plain(x) - generated(x)) for x in grid) <= 1e-9
    side = "below" if which == "dL" else "above"
    strict = irreducible_interval_ideal(q, which, a, strict=True)
    approached = generate_interval_ideal(order, approach_terms(a, side))
    assert max(abs(strict(x) - approached(x)) for x in grid) <= 1e-9


def test_generate_interval_ideal_needs_terms():
    order = interval_order(interval_quantale("lukasiewicz"), "dL")
    with pytest.raises(ShapeMismatch):
        generate_interval_ideal(order, ())
