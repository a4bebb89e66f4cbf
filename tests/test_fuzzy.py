"""Fuzzy lower/upper sets: degrees, transport, suprema, enumeration."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qideal.errors import (
    BaseMismatch,
    BudgetExceeded,
    GridTooCoarse,
    NotLower,
    NotUpper,
    ShapeMismatch,
)
from qideal.fuzzy import (
    FuzzySet,
    _monotone_value_tuples,
    classify_fuzzy_set,
    constant_fuzzy_set,
    enumerate_monotone_sets,
    fuzzy_set,
    intersection_inclusion_identities,
    kan_transport_identity,
    sub_degree,
    suprema,
    tensor_degree,
    transport,
    yoneda,
)
from qideal.interval import classify_sampled, interval_order, interval_quantale
from qideal.qorder import (
    build_qmap,
    crisp_qorder,
    identity_qmap,
    point_qorder,
    random_qorder,
    standard_qorder,
)
from qideal.quantale import boolean4, godel_chain, lukasiewicz_chain
from qideal.scott import generate_scott_structure, is_scott_member

L3 = lukasiewicz_chain(3)
DL3 = standard_qorder(L3, "dL")
HALF = Fraction(1, 2)


def two_chain(q):
    return crisp_qorder(q, ("a", "b"), ((True, True), (False, True)))


def test_fuzzy_set_construction_and_guards():
    A = standard_qorder(L3, "discrete", n=2)
    phi = fuzzy_set(A, {"x0": HALF, "x1": 1})
    assert phi.value("x0") == HALF
    assert phi.as_dict() == {"x0": HALF, "x1": Fraction(1)}
    assert fuzzy_set(A, (HALF, 1)).values == phi.values
    with pytest.raises(ShapeMismatch):
        fuzzy_set(A, {"x0": HALF})
    with pytest.raises(ShapeMismatch):
        fuzzy_set(A, {"x0": HALF, "x1": 1, "zap": 0})
    with pytest.raises(ShapeMismatch):
        fuzzy_set(A, (HALF,))


def test_yoneda_lemma():
    # inclusion degree of a principal lower set is evaluation
    for phi in enumerate_monotone_sets(DL3, "lower"):
        for a in DL3.elements:
            assert sub_degree(yoneda(DL3, a), phi) == phi.value(a)


def test_yoneda_is_fully_faithful():
    for a in DL3.elements:
        for b in DL3.elements:
            assert sub_degree(yoneda(DL3, a), yoneda(DL3, b)) == DL3.degree(a, b)


def test_classify_fuzzy_set_flags():
    A = two_chain(L3)
    rep = classify_fuzzy_set(fuzzy_set(A, {"a": 1, "b": HALF}))
    assert rep["lower"] and not rep["upper"] and rep["inhabited"]
    assert rep["witnesses"]["upper"] == ("a", "b")
    rep = classify_fuzzy_set(fuzzy_set(A, {"a": 0, "b": HALF}))
    assert rep["upper"] and not rep["lower"] and not rep["inhabited"]
    assert rep["witnesses"]["lower"] == ("a", "b")
    # discrete bases make every vector both lower and upper
    D = standard_qorder(L3, "discrete", n=2)
    rep = classify_fuzzy_set(fuzzy_set(D, (HALF, 0)))
    assert rep["lower"] and rep["upper"]


def test_degrees_spot_values():
    A = two_chain(L3)
    phi = fuzzy_set(A, {"a": 1, "b": HALF})
    psi = fuzzy_set(A, {"a": 0, "b": HALF})
    assert sub_degree(phi, constant_fuzzy_set(A, Fraction(1))) == 1
    assert sub_degree(constant_fuzzy_set(A, Fraction(1)), phi) == HALF
    assert tensor_degree(phi, psi) == 0   # 1&0 and 1/2&1/2 under Lukasiewicz
    assert tensor_degree(phi, constant_fuzzy_set(A, Fraction(1))) == 1


def test_degree_guards():
    A = two_chain(L3)
    B = standard_qorder(L3, "discrete", n=2)
    phi = constant_fuzzy_set(A, Fraction(1))
    with pytest.raises(BaseMismatch):
        sub_degree(phi, constant_fuzzy_set(B, Fraction(1)))
    with pytest.raises(NotLower) as err:
        tensor_degree(fuzzy_set(A, {"a": 0, "b": 1}), phi)
    assert err.value.witness == ("a", "b")
    with pytest.raises(NotUpper):
        tensor_degree(phi, fuzzy_set(A, {"a": 1, "b": 0}))


def test_transport_identity_and_closure():
    f = identity_qmap(DL3)
    phi = yoneda(DL3, HALF)
    assert transport(f, phi, "forward").values == phi.values
    assert transport(f, phi, "backward").values == phi.values
    # forward transport lower-closes a non-lower input
    spike = fuzzy_set(DL3, {Fraction(0): 0, HALF: 1, Fraction(1): 0})
    image = transport(f, spike, "forward")
    assert classify_fuzzy_set(image)["lower"]
    assert image.value(Fraction(1)) == HALF


def test_transport_collapses_along_a_map():
    A = two_chain(L3)
    pt = point_qorder(L3)
    f = build_qmap(A, pt, {"a": "*", "b": "*"})
    phi = fuzzy_set(A, {"a": HALF, "b": 0})
    assert transport(f, phi, "forward").value("*") == HALF
    back = transport(f, constant_fuzzy_set(pt, HALF), "backward")
    assert back.as_dict() == {"a": HALF, "b": HALF}
    with pytest.raises(BaseMismatch):
        transport(f, constant_fuzzy_set(pt, HALF), "forward")
    with pytest.raises(BaseMismatch):
        transport(f, phi, "backward")
    with pytest.raises(ValueError):
        transport(f, phi, "sideways")


def test_suprema():
    # principal lower sets recover their generator
    for a in DL3.elements:
        assert suprema(yoneda(DL3, a)) == (a,)
    q = boolean4()
    D = standard_qorder(q, "discrete", n=2)
    assert suprema(fuzzy_set(D, ("a", "b"))) == ()
    A = two_chain(L3)
    assert suprema(constant_fuzzy_set(A, Fraction(0))) == ("a",)
    with pytest.raises(NotLower):
        suprema(fuzzy_set(A, {"a": 0, "b": 1}))


def test_enumerate_monotone_sets():
    A = two_chain(L3)
    lowers = enumerate_monotone_sets(A, "lower")
    uppers = enumerate_monotone_sets(A, "upper")
    assert len(lowers) == len(uppers) == 6
    assert all(classify_fuzzy_set(phi)["lower"] for phi in lowers)
    with pytest.raises(ValueError):
        enumerate_monotone_sets(A, "sideways")
    with pytest.raises(BudgetExceeded):
        enumerate_monotone_sets(A, "lower", budget=3)


def test_enumerated_sets_are_slotted_frozen_values():
    A = two_chain(L3)
    phi = enumerate_monotone_sets(A, "lower")[-1]
    assert not hasattr(phi, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.values = (0, 0)
    twin = FuzzySet(two_chain(L3), phi.values)
    assert twin == phi and hash(twin) == hash(phi)
    assert phi != FuzzySet(standard_qorder(L3, "discrete", n=2), phi.values)
    assert phi != FuzzySet(A, (0, 0))
    assert phi.as_dict() == {"a": Fraction(1), "b": Fraction(1)}
    assert phi.value("b") == 1


@pytest.mark.parametrize("A", [standard_qorder(lukasiewicz_chain(6), "dL"),
                               standard_qorder(boolean4(), "discrete", n=3)],
                         ids=["dL/L6", "discrete-3/boolean4"])
def test_bulk_built_sets_equal_constructed_ones(A):
    """The sets enumeration builds without calling __init__ are the
    FuzzySet(A, v) of their value tuples in every respect (the test
    above checks that they stay frozen and slotted)."""
    for kind in ("lower", "upper"):
        built = enumerate_monotone_sets(A, kind)
        made = tuple(FuzzySet(A, v) for v in _monotone_value_tuples(A, kind, 10 ** 6))
        assert len(built) == len(made) > 1
        for phi, psi in zip(built, made):
            assert phi == psi and hash(phi) == hash(psi) and repr(phi) == repr(psi)
            assert type(phi) is FuzzySet and phi.base is A
        phi = built[len(built) // 2]
        assert copy.copy(phi) == phi and pickle.loads(pickle.dumps(phi)) == phi


@pytest.mark.parametrize("mode, kind", [("topology", "upper"), ("cotopology", "lower")])
def test_scott_members_are_the_sets_that_pass_membership(mode, kind):
    A = standard_qorder(lukasiewicz_chain(6), "dL")
    members = generate_scott_structure(A, mode).members
    expected = tuple(psi for psi in enumerate_monotone_sets(A, kind)
                     if is_scott_member(psi, mode)[0])
    assert len(expected) > 1
    assert members == expected and list(map(repr, members)) == list(map(repr, expected))
    assert all(m.base is A for m in members)


def test_classify_sampled_on_the_interval():
    order = interval_order(interval_quantale("lukasiewicz"), "dR")
    rep = classify_sampled(order, lambda x: x, grid=65)
    assert rep["lower"] and rep["inhabited"] and not rep["upper"]
    rep = classify_sampled(order, lambda x: 1.0, grid=65)
    assert rep["lower"] and rep["upper"] and rep["inhabited"]
    rep = classify_sampled(order, lambda x: 0.25, grid=65)
    assert not rep["inhabited"]


@pytest.mark.parametrize("grid", [1, 0])
def test_classify_sampled_needs_two_grid_points(grid):
    order = interval_order(interval_quantale("lukasiewicz"), "dR")
    with pytest.raises(GridTooCoarse, match=f"grid has {grid} points; at least 2 required"):
        classify_sampled(order, lambda x: x, grid=grid)
    assert classify_sampled(order, lambda x: x, grid=2)["lower"]


@pytest.mark.parametrize("q", [lukasiewicz_chain(3), boolean4(), godel_chain(3)])
def test_intersection_inclusion_identities(q):
    A = crisp_qorder(q, ("a", "b"), ((True, True), (False, True)))
    assert intersection_inclusion_identities(A) is None
    D = standard_qorder(q, "discrete", n=2)
    assert intersection_inclusion_identities(D) is None


def test_kan_transport_identity():
    A = two_chain(L3)
    pt = point_qorder(L3)
    assert kan_transport_identity(build_qmap(A, pt, {"a": "*", "b": "*"})) is None
    assert kan_transport_identity(identity_qmap(DL3)) is None


def test_identity_checks_charge_pairs_not_candidates():
    # 2^23 candidate vectors, but a crisp chain has only 24 lower sets
    n = 23
    chain = crisp_qorder(godel_chain(2), tuple(f"p{i}" for i in range(n)),
                         [[i <= j for j in range(n)] for i in range(n)])
    assert intersection_inclusion_identities(chain) is None
    assert kan_transport_identity(identity_qmap(chain)) is None
    # 24 lower sets times 48 lower and upper sets times 2 values
    with pytest.raises(BudgetExceeded, match="2304 pairs checked"):
        intersection_inclusion_identities(chain, budget=2303)
    # the chain's 576 transport pairs cost less than its 642 walk values,
    # so the transport charge is refused on the 48 lower sets of dL over
    # Łukasiewicz-5, whose walk writes 345
    dl5 = standard_qorder(lukasiewicz_chain(5), "dL")
    with pytest.raises(BudgetExceeded, match="2304 pairs checked"):
        kan_transport_identity(identity_qmap(dl5), budget=2303)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_yoneda_images_are_lower_and_inhabited(seed):
    A = random_qorder(L3, 3, random.Random(seed))
    for a in A.elements:
        rep = classify_fuzzy_set(yoneda(A, a))
        assert rep["lower"] and rep["inhabited"]
