"""Ideal spaces, weighted joins, saturation, completeness."""

from fractions import Fraction

import pytest

from qideal import completion
from qideal.completion import (
    check_completeness_continuity,
    check_saturation,
    ideal_space,
    weighted_join,
)
from qideal.errors import BaseMismatch, BudgetExceeded, NotLower
from qideal.fuzzy import classify_fuzzy_set, fuzzy_set, yoneda
from qideal.qorder import crisp_qorder, standard_qorder, validate_qorder
from qideal.quantale import boolean4, lukasiewicz_chain

L3 = lukasiewicz_chain(3)


def two_chain(q):
    return crisp_qorder(q, ("a", "b"), ((True, True), (False, True)))


def test_ideal_space_structure():
    A = two_chain(L3)
    S = ideal_space(A, "flat")
    assert S.class_tag == "flat"
    assert S.space.elements == tuple(f"phi{i}" for i in range(S.n))
    assert validate_qorder(S.space) is None
    # embedding is fully faithful
    for a in range(A.n):
        for b in range(A.n):
            fa, fb = S.yoneda_map.mapping[a], S.yoneda_map.mapping[b]
            assert S.space.hom[fa][fb] == A.hom[a][b]
    phi = yoneda(A, "b")
    assert S.contains(phi)
    assert S.member_label(phi) == S.space.elements[S.index_of(phi)]
    assert not S.contains(fuzzy_set(A, {"a": 0, "b": 0}))


def test_ideal_space_budget():
    with pytest.raises(BudgetExceeded):
        ideal_space(two_chain(L3), "flat", budget=3)


def test_weighted_join_of_a_principal_weight_returns_the_member():
    A = two_chain(L3)
    S = ideal_space(A, "flat")
    for i, member in enumerate(S.carrier):
        lam = yoneda(S.space, S.space.elements[i])
        assert weighted_join(S, lam).values == member.values


def test_weighted_join_guards():
    A = two_chain(L3)
    S = ideal_space(A, "flat")
    with pytest.raises(BaseMismatch):
        weighted_join(S, yoneda(A, "a"))
    # cook a non-lower weight on the space: top member at 1, rest 0
    top = S.index_of(yoneda(A, "b"))
    vals = [Fraction(1) if i == top else Fraction(0) for i in range(S.n)]
    lam = fuzzy_set(S.space, vals)
    if not classify_fuzzy_set(lam)["lower"]:
        with pytest.raises(NotLower):
            weighted_join(S, lam)


@pytest.mark.parametrize("which", ["fc", "flat", "irr"])
@pytest.mark.parametrize("make", [
    lambda q: two_chain(q),
    lambda q: standard_qorder(q, "discrete", n=2),
])
def test_saturation_on_small_bases(which, make):
    rep = check_saturation(make(L3), which)
    assert rep["saturated"], rep["violations"][:1]
    assert rep["weights_checked"] > 0
    assert rep["violations"] == []


def test_saturation_cap():
    """The 20 weights on the 6 lower sets each read 6 * (6 + 2) values,
    charged before the first weighted join."""
    with pytest.raises(BudgetExceeded, match="^960 weighted-join lookups exceed the budget of 959$"):
        check_saturation(two_chain(L3), "lower", budget=959)
    assert check_saturation(two_chain(L3), "lower", budget=960)["weights_checked"] == 20


def test_ideal_space_charges_its_hom_table():
    with pytest.raises(BudgetExceeded, match="^72 ideal-space hom lookups exceed the budget of 71$"):
        ideal_space(two_chain(L3), "lower", budget=71)
    assert ideal_space(two_chain(L3), "lower", budget=72).n == 6


def test_saturation_is_refused_before_the_ideal_space_is_built(monkeypatch):
    def lookup(*args):
        pytest.fail("an ideal-space hom entry was computed over the budget")
    monkeypatch.setattr(completion, "_sub_idx", lookup)
    A = standard_qorder(lukasiewicz_chain(10), "dL")
    with pytest.raises(BudgetExceeded, match="ideal-space hom lookups"):
        check_saturation(A, "lower")


def test_completeness_failure_has_a_witness():
    A = standard_qorder(boolean4(), "discrete", n=2)
    rep = check_completeness_continuity(A, "flat")
    assert rep["complete"] is False and rep["continuous"] is False
    assert "no_supremum" in rep["witnesses"]
    # the witness really is a flat ideal without a supremum
    assert set(rep["witnesses"]["no_supremum"].values()) == {"a", "b"}


def test_completeness_and_continuity_on_the_ideal_space():
    A = two_chain(L3)
    rep = check_completeness_continuity(A, "flat")
    assert rep["complete"] and rep["continuous"]
    S = rep["space"]
    # suprema restricted along the embedding give the identity back
    for a in A.elements:
        assert rep["sup"][S.member_label(yoneda(A, a))] == a
    # the adjoint satisfies the defining adjunction on every pair
    adj = rep["adjoint"]
    assert adj.is_order_preserving
    sup_idx = {lbl: A.index(v) for lbl, v in rep["sup"].items()}
    for a in range(A.n):
        for i in range(S.n):
            lhs = S.space.hom[adj.mapping[a]][i]
            rhs = A.hom[a][sup_idx[S.space.elements[i]]]
            assert lhs == rhs


def test_adjoint_is_the_principal_embedding_on_a_continuous_base():
    A = two_chain(L3)
    rep = check_completeness_continuity(A, "flat")
    assert rep["adjoint"].mapping == rep["space"].yoneda_map.mapping
