"""Q-ordered sets, maps and adjunctions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qideal.errors import (
    BudgetExceeded,
    EmptyCarrier,
    QuantaleMismatch,
    ShapeMismatch,
    ValidationError,
)
from qideal.interval import interval_order, interval_quantale
from qideal.qorder import (
    QOrderedSet,
    all_qmaps,
    build_qmap,
    build_qorder,
    check_map_and_adjunction,
    crisp_qorder,
    identity_qmap,
    opposite,
    point_qorder,
    random_qorder,
    standard_qorder,
    validate_qorder,
)
from qideal.fuzzy import fuzzy_set
from qideal.quantale import boolean4, build_finite_quantale, godel_chain, lukasiewicz_chain

L4 = lukasiewicz_chain(4)
DL = standard_qorder(L4, "dL")
DR = standard_qorder(L4, "dR")


def test_dL_degrees_are_residuations():
    third = Fraction(1, 3)
    assert DL.degree(1, third) == third
    assert DL.degree(third, 1) == 1
    # dR flips the arguments
    assert DR.degree(1, third) == 1
    assert DR.degree(third, 1) == third


def test_dR_is_the_opposite_of_dL():
    assert DR.hom == opposite(DL).hom
    assert opposite(opposite(DL)).hom == DL.hom


@pytest.mark.parametrize("A", [DL, DR, point_qorder(L4),
                               standard_qorder(L4, "discrete", n=3)])
def test_standard_orders_validate(A):
    assert validate_qorder(A) is None


def test_discrete_hom_and_default_labels():
    A = standard_qorder(L4, "discrete", n=2)
    assert A.elements == ("x0", "x1")
    assert A.degree("x0", "x0") == 1
    assert A.degree("x0", "x1") == 0
    B = standard_qorder(L4, "discrete", labels=("p", "q"))
    assert B.elements == ("p", "q")


def test_crisp_embedding():
    q = godel_chain(3)
    A = crisp_qorder(q, ("a", "b"), ((True, True), (False, True)))
    assert A.degree("a", "b") == 1
    assert A.degree("b", "a") == 0
    assert validate_qorder(A) is None


def test_power_order_is_pointwise():
    q = lukasiewicz_chain(2)
    A = standard_qorder(q, "power", n=2)
    assert A.n == 4
    # hom of maps is the meet of pointwise inclusion degrees
    f, g = (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))
    assert A.degree(f, f) == 1
    assert A.degree(f, g) == 0
    assert A.degree((Fraction(0), Fraction(0)), f) == 1


def test_power_order_budget():
    with pytest.raises(BudgetExceeded):
        standard_qorder(lukasiewicz_chain(6), "power", n=5, budget=100)
    with pytest.raises(BudgetExceeded):
        standard_qorder(lukasiewicz_chain(2), "power", n=1, budget=0)


def test_power_order_charges_its_hom_lookups():
    """|Q|^k maps on k labels make (|Q|^k)^2 * k lookups: 4 for Ł2 on
    one label."""
    q = lukasiewicz_chain(2)
    with pytest.raises(BudgetExceeded, match="^4 power hom lookups exceed the budget of 3$"):
        standard_qorder(q, "power", n=1, budget=3)
    assert standard_qorder(q, "power", n=1, budget=4).n == 2
    with pytest.raises(BudgetExceeded, match="power hom lookups"):
        standard_qorder(q, "power", labels=[f"y{i}" for i in range(12)])


def test_standard_qorder_rejects_unknown_name():
    with pytest.raises(ValueError):
        standard_qorder(L4, "zigzag")
    with pytest.raises(QuantaleMismatch):
        standard_qorder(godel_chain(3), "opposite", base=DL)


def test_build_qorder_guards():
    q = lukasiewicz_chain(2)
    with pytest.raises(EmptyCarrier):
        build_qorder(q, (), ())
    with pytest.raises(ShapeMismatch):
        build_qorder(q, ("a", "a"), ((1, 1), (1, 1)))
    with pytest.raises(ShapeMismatch):
        build_qorder(q, ("a", "b"), ((1, 1),))
    with pytest.raises(ShapeMismatch):
        build_qorder(q, ("a", "b"), ((1, "zap"), (0, 1)))


def test_a_point_has_one_label_in_any_spelling():
    """A carrier cannot hold two spellings of one label, and a dict may
    name a point by any spelling of its label, but only once."""
    q = lukasiewicz_chain(3)
    with pytest.raises(ShapeMismatch, match="duplicate element label"):
        build_qorder(q, ("1", Fraction(1)), ((1, 1), (1, 1)))
    for labels in (("0.5", "1/2"), ("a", "a")):
        with pytest.raises(ShapeMismatch, match="duplicate element label"):
            standard_qorder(q, "discrete", labels=labels)
        with pytest.raises(ShapeMismatch, match="duplicate element label"):
            random_qorder(q, 2, random.Random(0), labels=labels)
    A = standard_qorder(q, "dL")
    by_fraction = fuzzy_set(A, {Fraction(0): 1, Fraction(1, 2): 1, Fraction(1): "1/2"})
    assert fuzzy_set(A, {"0": 1, "0.5": 1, "1": "1/2"}) == by_fraction
    assert fuzzy_set(A, {0.0: "1", "1/2": 1.0, 1: 0.5}) == by_fraction
    with pytest.raises(ShapeMismatch, match="two keys name one point"):
        fuzzy_set(A, {"0": 1, "1/2": 1, "0.5": 1, "1": "1/2"})
    f = build_qmap(A, A, {"0": "0.5", "0.5": "1", "1": 1})
    assert f.mapping == (1, 2, 2) == build_qmap(A, A, ["1/2", 1, 1.0]).mapping
    with pytest.raises(ShapeMismatch, match="two keys name one point"):
        build_qmap(A, A, {"0": 0, "0.0": 0, "1/2": 1, "1": 1})
    # a bool-labelled carrier: only a bool names a point
    crisp = build_finite_quantale((False, True), ((1, 1), (0, 1)),
                                  ((False, False), (False, True)), True)
    B = standard_qorder(crisp, "dL")
    assert B.index(True) == 1 and fuzzy_set(B, {True: True, False: True}).values == (1, 1)
    with pytest.raises(ShapeMismatch, match="values miss a carrier element"):
        fuzzy_set(B, {1: True, 0: True})


def test_build_qorder_rejects_broken_axioms():
    q = lukasiewicz_chain(2)
    with pytest.raises(ValidationError, match="reflexive"):
        build_qorder(q, ("a",), ((0,),))
    # a <= b and b <= a at degree 1, but a ~ a is fine; break transitivity
    with pytest.raises(ValidationError, match="transitive"):
        build_qorder(q, ("a", "b", "c"),
                     ((1, 1, 0), (0, 1, 1), (0, 0, 1)))


def test_validate_qorder_reports_labels_and_sides():
    q = lukasiewicz_chain(2)
    hom = ((q.unit, q.unit, q.bottom),
           (q.bottom, q.unit, q.unit),
           (q.bottom, q.bottom, q.unit))
    A = QOrderedSet(q, ("a", "b", "c"), hom)
    bad = validate_qorder(A)
    assert bad["law"] == "hom is not transitive"
    assert bad["witness"] == ("a", "b", "c")
    assert (bad["lhs"], bad["rhs"]) == (1, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4))
def test_random_qorders_satisfy_the_axioms(seed, n):
    q = lukasiewicz_chain(3)
    A = random_qorder(q, n, random.Random(seed))
    assert validate_qorder(A) is None


def test_identity_and_all_qmaps():
    A = standard_qorder(L4, "discrete", n=2)
    assert identity_qmap(DL).is_order_preserving
    maps = list(all_qmaps(A, A))
    assert len(maps) == 4
    assert maps[0].mapping == (0, 0)   # lexicographic
    assert all(f.source is A for f in maps)


def test_order_violation_witness():
    # collapsing a 2-chain onto discrete points loses 1 <= 1
    q = lukasiewicz_chain(2)
    chain = crisp_qorder(q, ("a", "b"), ((True, True), (False, True)))
    disc = standard_qorder(q, "discrete", labels=("a", "b"))
    f = build_qmap(chain, disc, {"a": "a", "b": "b"})
    assert f.order_violation() == ("a", "b")
    assert not f.is_order_preserving


def test_build_qmap_guards():
    q = lukasiewicz_chain(2)
    A = standard_qorder(q, "discrete", n=2)
    B = standard_qorder(godel_chain(3), "discrete", n=2)
    with pytest.raises(QuantaleMismatch):
        build_qmap(A, B, {"x0": "x0", "x1": "x1"})
    with pytest.raises(ShapeMismatch):
        build_qmap(A, A, {"x0": "x0"})
    with pytest.raises(ShapeMismatch):
        build_qmap(A, A, {"x0": "x0", "x1": "x1", "y": "x0"})
    with pytest.raises(ShapeMismatch):
        build_qmap(A, A, ("x0",))


def test_tensoring_is_adjoint_to_residuation():
    # f(p) = p & c has right adjoint g(r) = c -> r in the inclusion order
    c = Fraction(1, 3)
    lab = L4.elements.__getitem__
    f = build_qmap(DL, DL, [lab(L4.tensor(L4.index(p), L4.index(c)))
                            for p in DL.elements])
    g = build_qmap(DL, DL, [lab(L4.residuate(L4.index(c), L4.index(r)))
                            for r in DL.elements])
    rep = check_map_and_adjunction(f, g)
    assert rep["order_preserving"] and rep["g_order_preserving"]
    assert rep["adjoint"] and rep["adjoint_witness"] is None


def test_adjunction_failure_is_witnessed():
    f = identity_qmap(DL)
    c = Fraction(1, 3)
    lab = L4.elements.__getitem__
    g = build_qmap(DL, DL, [lab(L4.tensor(L4.index(p), L4.index(c)))
                            for p in DL.elements])
    rep = check_map_and_adjunction(f, g)
    assert rep["adjoint"] is False
    assert rep["adjoint_witness"] is not None


def test_adjunction_shape_guard():
    A = standard_qorder(L4, "discrete", n=2)
    f = identity_qmap(DL)
    with pytest.raises(ShapeMismatch):
        check_map_and_adjunction(f, identity_qmap(A))


def test_interval_orders():
    q = interval_quantale("lukasiewicz")
    assert interval_order(q, "dL").hom(0.75, 0.5) == 0.75
    assert interval_order(q, "dR").hom(0.75, 0.5) == 1.0
    with pytest.raises(ValueError):
        interval_order(q, "middle")


def test_boolean4_orders_validate():
    q = boolean4()
    assert validate_qorder(standard_qorder(q, "dL")) is None
    assert validate_qorder(standard_qorder(q, "dR")) is None
