"""The value-class contract: constructors, equality, hash, repr, frozen
assignment and pickling, pinned as the classes behaved when they were
dataclasses."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from qideal import (
    FuzzySet,
    build_qmap,
    classify_ideal,
    enumerate_monotone_sets,
    interval_quantale,
    lukasiewicz_chain,
    periodic_sequence,
    quantale_properties,
    standard_qorder,
    yoneda,
)
from qideal.completion import ideal_space
from qideal.ideals import EventuallyPeriodicSequence, IdealReport
from qideal.interval import IntervalOrder, IntervalQuantale, interval_order
from qideal.qorder import QMap, QOrderedSet
from qideal.quantale import FiniteQuantale, QuantaleProps
from qideal.scott import ScottStructure
from qideal.suites import SuiteResult

L2 = lukasiewicz_chain(2)
A = standard_qorder(L2, "dL")
F = build_qmap(A, A, [Fraction(0), Fraction(0)])
I = interval_quantale("lukasiewicz")
S = periodic_sequence(A, [Fraction(1)], prefix=[Fraction(0)])

Q_REPR = ("FiniteQuantale(elements=(Fraction(0, 1), Fraction(1, 1)), "
          "leq=((True, True), (False, True)), tensor_table=((0, 0), (0, 1)), "
          "unit=1, bottom=0, top=1, catalog=('lukasiewicz_chain', {'n': 2}))")
A_REPR = (f"QOrderedSet(quantale={Q_REPR}, elements=(Fraction(0, 1), Fraction(1, 1)), "
          "hom=((1, 1), (0, 1)), catalog=('dL', {}))")
REPRS = [
    (L2, Q_REPR),
    (A, A_REPR),
    (F, f"QMap(source={A_REPR}, target={A_REPR}, mapping=(0, 0))"),
    (I, "IntervalQuantale(tnorm='lukasiewicz', pieces=(), tolerance=1e-09)"),
    (S, f"EventuallyPeriodicSequence(base={A_REPR}, prefix=(0,), cycle=(1,))"),
]


def test_reprs_are_pinned():
    for value, text in REPRS:
        assert repr(value) == text


def test_equality_and_hash_cover_the_compared_fields_only():
    twin_q = lukasiewicz_chain(2)
    twin_a = standard_qorder(twin_q, "dL")
    keys = [
        (L2, twin_q, (L2.leq, L2.tensor_table, L2.unit)),    # index tables: labels aside
        (A, twin_a, (A.quantale, A.elements, A.hom)),
        (F, build_qmap(twin_a, twin_a, [0, 0]), (F.source, F.target, F.mapping)),
        (I, interval_quantale("lukasiewicz"), (I.tnorm, I.pieces, I.tolerance)),
        (S, periodic_sequence(twin_a, [1], prefix=[0]), (S.base, S.prefix, S.cycle)),
    ]
    for value, twin, key in keys:
        assert value is not twin and value == twin and hash(value) == hash(twin)
        assert hash(value) == hash(key)
    # catalog is not compared
    assert A == QOrderedSet(L2, A.elements, A.hom)
    assert A != standard_qorder(L2, "dR")
    assert I != interval_quantale("product") and F != build_qmap(A, A, [1, 1])
    # equality holds only within one class, as with dataclasses
    assert F != (F.source, F.target, F.mapping)
    assert L2.__eq__(A) is NotImplemented


def test_mutable_values_compare_but_do_not_hash():
    rep = classify_ideal(yoneda(A, Fraction(1)))
    assert repr(rep) == ("IdealReport(inhabited=True, flat=True, irreducible=True, "
                         "forward_cauchy=True, witnesses={})")
    assert rep == IdealReport(True, True, True, True, {})
    space = ideal_space(A, "fc")
    assert "positions" not in repr(space) and space == ideal_space(A, "fc")
    result = SuiteResult("X", [], "pass", [], 0.5)
    other = SuiteResult("X", [], "pass", [], 0.5)
    assert result.details == {} and result.details is not other.details
    assert repr(result) == ("SuiteResult(name='X', instances=[], verdict='pass', "
                            "witnesses=[], elapsed=0.5, details={})")
    structure = ScottStructure(A, "topology", "fc", (), {}, False, False, False)
    structure.axioms = {"ok": True}
    for value in (rep, space, result, structure):
        with pytest.raises(TypeError):
            hash(value)


def test_quantale_props_vars_are_the_nine_flags():
    props = quantale_properties(L2)
    assert list(vars(props)) == [
        "is_integral", "is_commutative", "is_prelinear", "is_divisible",
        "has_double_negation", "is_archimedean", "idempotents",
        "is_meet_continuous", "is_dually_meet_continuous"]
    assert props == quantale_properties(lukasiewicz_chain(2))


FROZEN = [
    (L2, "unit"),
    (A, "hom"),
    (F, "mapping"),
    (I, "tnorm"),
    (S, "cycle"),
    (quantale_properties(L2), "is_prelinear"),
    (interval_order(I, "dL"), "which"),
    (enumerate_monotone_sets(A, "lower")[0], "values"),
]


@pytest.mark.parametrize("value, name", FROZEN, ids=[type(v).__name__ for v, _ in FROZEN])
def test_frozen_values_reject_assignment(value, name):
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    if hasattr(value, "__dict__"):      # a slotted class has no room for more
        with pytest.raises(FrozenInstanceError):
            setattr(value, "extra", None)


@pytest.mark.parametrize("value", [L2, A, F, I, S, enumerate_monotone_sets(A, "upper")[-1]],
                         ids=lambda v: type(v).__name__)
def test_values_survive_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_constructor_signatures():
    q = FiniteQuantale(L2.elements, L2.leq, L2.tensor_table, L2.unit, L2.join_table,
                       L2.meet_table, L2.res_table, L2.neg_vector, L2.bottom, L2.top,
                       catalog=("x", {}))
    assert q == L2 and q.catalog == ("x", {}) and q.index("1") == 1
    assert q.prime_tables == L2.prime_tables
    B = QOrderedSet(q, A.elements, A.hom, catalog=None)
    assert B == A and B.index(Fraction(1)) == 1 and hash(B) == hash(A)
    assert QMap(source=B, target=B, mapping=(0, 1)) == build_qmap(A, A, [0, 1])
    assert IntervalQuantale("min") == interval_quantale("min")
    assert IntervalOrder(I, which="dR") == interval_order(I, "dR")
    assert EventuallyPeriodicSequence(A, (0,), (1,)) == S
    assert FuzzySet(base=A, values=(1, 1)) == FuzzySet(A, (1, 1))
    assert QuantaleProps(*vars(quantale_properties(L2)).values()) == quantale_properties(L2)
    with pytest.raises(TypeError):
        QMap(A, A)
