"""The walk memo in fuzzy: it keeps lower walks by quantale and hom,
the upper walk of a base as the lower walk of its dual, and nothing
else; what it keeps is reused, and no verdict, budget refusal or report
depends on whether it is warm or empty."""

import random

import pytest

from qideal import fuzzy, suites
from qideal.completion import check_saturation, ideal_space
from qideal.errors import BudgetExceeded
from qideal.fuzzy import _inhabited, _monotone_value_tuples, _walk, enumerate_monotone_sets
from qideal.ideals import enumerate_ideals
from qideal.qorder import QOrderedSet, crisp_qorder, random_qorder, standard_qorder
from qideal.quantale import FiniteQuantale, boolean4, godel_chain, lukasiewicz_chain
from qideal.scott import generate_scott_structure, is_scott_member
from qideal.suites import run_suite, suite_names

DL4 = standard_qorder(lukasiewicz_chain(4), "dL")


def transpose(hom):
    return tuple(zip(*hom))


def outcomes(call, budgets):
    """What call(budget) gives for each budget, a refusal as the budget
    verdict with what it refused on."""
    out = []
    for budget in budgets:
        try:
            out.append(call(budget))
        except BudgetExceeded as e:
            out.append(("budget", e.what))
    return out


def cold_and_warm(monkeypatch, call, budgets):
    """The outcomes with the memo emptied before each call, and with it
    warmed once at the default budget and then kept."""
    cold = []
    for budget in budgets:
        monkeypatch.setattr(fuzzy, "_MEMO", {})
        cold += outcomes(call, [budget])
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    call(None)
    warm = outcomes(call, budgets)
    assert any(o[0] == "budget" for o in cold)
    assert any(o[0] != "budget" for o in cold)
    return cold, warm


# 132 walk values tried and written per walk (4 values at each of 13
# nodes, 4 per each of 20 sets); the axioms of a family that is all 20
# sets charge nothing, and the 8 * 3 * 4 generator rows joined for the
# 8 inhabited lower sets (3 thresholds of 4 rows) stay under the walk's
# count, so they never refuse here and 159 and 160 are no boundary
DL4_BUDGETS = (0, 131, 132, 159, 160, 5_000)

# dR over Gödel-4: 140 walk values tried and written per walk, and 14 *
# 3 * 4 generator rows joined for its 14 inhabited lower sets, more
# than the walk, so a census over it can be refused on either
GR4 = standard_qorder(godel_chain(4), "dR")
GR4_BUDGETS = (0, 139, 140, 167, 168, 5_000)


# the 6 lower sets of a two-point chain over Łukasiewicz-3: 6 * 6 * 2
# ideal-space hom lookups, 186 walk values tried and written on the
# space, and 20 weights * 6 * (6 + 2) weighted-join lookups
CHAIN = crisp_qorder(lukasiewicz_chain(3), ("a", "b"), ((True, True), (False, True)))
CHAIN_BUDGETS = (0, 71, 72, 185, 186, 959, 960)


def test_ideal_space_refuses_alike_warm_and_cold(monkeypatch):
    def call(budget):
        S = ideal_space(CHAIN, "lower", budget=budget)
        return ("space", S.space.hom)
    cold, warm = cold_and_warm(monkeypatch, call, CHAIN_BUDGETS)
    assert cold == warm


def test_saturation_refuses_alike_warm_and_cold(monkeypatch):
    def call(budget):
        rep = check_saturation(CHAIN, "lower", budget=budget)
        return ("saturation", rep["weights_checked"], rep["saturated"])
    cold, warm = cold_and_warm(monkeypatch, call, CHAIN_BUDGETS)
    assert cold == warm
    walk = "walk values tried and written"
    assert [o[1] for o in cold] == [walk, "ideal-space hom lookups", walk, walk,
                                    "weighted-join lookups", "weighted-join lookups", 20]


@pytest.mark.parametrize("cls", ["fc", "flat", "irr"])
def test_enumerate_ideals_refuses_alike_warm_and_cold(monkeypatch, cls):
    def call(budget):
        return ("ideals", [p.values for p in enumerate_ideals(DL4, cls, budget=budget)])
    cold, warm = cold_and_warm(monkeypatch, call, DL4_BUDGETS)
    assert cold == warm


@pytest.mark.parametrize("mode", ["topology", "cotopology"])
def test_scott_structure_refuses_alike_warm_and_cold(monkeypatch, mode):
    def call(budget):
        S = generate_scott_structure(DL4, mode, budget=budget)
        return ("structure", [m.values for m in S.members], S.axioms)
    cold, warm = cold_and_warm(monkeypatch, call, DL4_BUDGETS)
    assert cold == warm


def test_census_suite_refuses_alike_warm_and_cold(monkeypatch):
    def call(budget):
        res = run_suite("FC_SUBSET_IRR", budget=budget)
        return (res.verdict, res.details)
    # the largest census charge is 168 generator rows joined
    cold, warm = cold_and_warm(monkeypatch, call, (1, 10, 40, 80, 140, 167, 168))
    assert cold == warm
    assert [o[0] for o in cold[-2:]] == ["budget", "pass"]


def test_a_census_over_a_warm_walk_refuses_as_a_cold_one(monkeypatch):
    """The census charges the walk's count whether it walked or found
    the walk kept, and a census built again charges it again."""
    def call(budget):
        return ("census", suites._census(GR4, budget))

    def over_warm_walk(budget):
        monkeypatch.setattr(fuzzy, "_MEMO", {})
        _monotone_value_tuples(GR4, "lower", None)
        return outcomes(call, [budget])[0]
    cold, warm = cold_and_warm(monkeypatch, call, GR4_BUDGETS)
    assert cold == warm == [over_warm_walk(budget) for budget in GR4_BUDGETS]
    assert [o[1] for o in cold[:4]] == ["walk values tried and written"] * 2 + [
        "generator rows joined"] * 2


@pytest.mark.parametrize("name", suite_names())
def test_a_suite_keeps_only_walks(monkeypatch, name):
    """Every entry is the lower walk of the hom it is kept under, with
    its count, over the quantale it is kept under."""
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    run_suite(name)
    for (q, hom), entry in fuzzy._MEMO.items():
        assert isinstance(q, FiniteQuantale)
        assert _walk(QOrderedSet(q, tuple(range(len(hom))), hom), "lower", None) == entry


def test_a_refused_walk_keeps_nothing(monkeypatch):
    """dL over Łukasiewicz-8 walks 5,064 values tried and written: one
    refused part-way leaves no entry, and beside a kept upper walk,
    which is kept under the transposed hom, it leaves that walk alone."""
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A = standard_qorder(lukasiewicz_chain(8), "dL")
    with pytest.raises(BudgetExceeded) as err:
        _monotone_value_tuples(A, "lower", 1_000)
    assert err.value.partial
    assert fuzzy._MEMO == {}
    uppers = _monotone_value_tuples(A, "upper", None)
    with pytest.raises(BudgetExceeded):
        _monotone_value_tuples(A, "lower", 1_000)
    assert fuzzy._MEMO == {(A.quantale, transpose(A.hom)): (uppers, 5_064)}


@pytest.mark.parametrize("name", ["FC_SUBSET_IRR", "SCOTT_AXIOMS", "PROP57_EQUIV"])
def test_reports_do_not_depend_on_the_memo(monkeypatch, name):
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    cold = run_suite(name).to_json()
    assert fuzzy._MEMO
    warm = run_suite(name).to_json()
    cold.pop("elapsed"), warm.pop("elapsed")
    assert cold == warm and cold["verdict"] == "pass"


def test_equal_bases_built_apart_share_one_entry(monkeypatch):
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A, B = (standard_qorder(lukasiewicz_chain(4), "dL") for _ in range(2))
    assert A == B and A is not B and hash(A) == hash(B)
    sets = _monotone_value_tuples(A, "lower", fuzzy.DEFAULT_BUDGET)
    assert _monotone_value_tuples(B, "lower", fuzzy.DEFAULT_BUDGET) is sets
    assert list(fuzzy._MEMO) == [(A.quantale, A.hom)]
    dR = standard_qorder(lukasiewicz_chain(4), "dR")
    enumerate_monotone_sets(dR, "lower")
    assert len(fuzzy._MEMO) == 2


def test_one_scott_context_serves_every_spelling_of_the_budget(monkeypatch):
    """budget=None and the default it stands for give one family, and
    the context is refused or admitted at the charge its build makes,
    with the walk kept or not.  A Goedel chain has no double negation,
    so its flat context is built."""
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A = standard_qorder(godel_chain(8), "dL")
    members = [generate_scott_structure(A, "topology", budget=budget).members
               for budget in (None, fuzzy.DEFAULT_BUDGET)]
    assert members[0] == members[1]
    lowers = enumerate_monotone_sets(A, "lower")
    inhabited = [p for p in lowers if _inhabited(A, p.values)]
    assert len(inhabited) < len(lowers)
    # 7 thresholds of 8 rows per inhabited lower set: the context is
    # refused one short of that and built at exactly that
    count = len(inhabited) * 7 * 8
    with pytest.raises(BudgetExceeded, match=f"^{count} generator rows joined"):
        generate_scott_structure(A, "topology", budget=count - 1)
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    assert is_scott_member(members[0][0], "topology", budget=count)[0]


@pytest.mark.parametrize("name", ["FC_SUBSET_IRR", "FC_SUBSET_FLAT", "IRR_SUBSET_FLAT_PRELINEAR",
                                  "FLAT_EQ_IRR_DOUBLENEG", "LINEAR_IRR_EQ_FC",
                                  "CLASSICAL_DEGENERATION"])
def test_class_comparisons_build_no_set_universe(monkeypatch, name):
    """The census takes flags from the lower walk, the generators and the
    principal rows: the memo walks no upper sets on any base (the walks
    that grow the crisp posets call _walk unmemoized)."""
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    kinds = set()

    def walk(A, kind, budget):
        kinds.add(kind)
        return _walk(A, kind, budget)
    monkeypatch.setattr(fuzzy, "_walk", walk)
    assert run_suite(name).verdict == "pass"
    assert kinds == {"lower"}


def test_dual_bases_share_one_walk(monkeypatch):
    """dR is the dual of dL: the upper sets of either are the lower sets
    of the other, kept once with one count."""
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    q = lukasiewicz_chain(6)
    dL, dR = standard_qorder(q, "dL"), standard_qorder(q, "dR")
    assert dR.hom == transpose(dL.hom) != dL.hom
    uppers = _monotone_value_tuples(dL, "upper", None)
    assert _monotone_value_tuples(dR, "lower", None) is uppers
    assert list(fuzzy._MEMO) == [(q, dR.hom)]
    assert _monotone_value_tuples(dR, "upper", None) is _monotone_value_tuples(dL, "lower", None)
    assert len(fuzzy._MEMO) == 2


def test_a_discrete_base_walks_once_for_both_kinds(monkeypatch):
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A = standard_qorder(boolean4(), "discrete", n=3)
    lowers = _monotone_value_tuples(A, "lower", None)
    assert _monotone_value_tuples(A, "upper", None) is lowers
    assert len(lowers) == 4 ** 3 and len(fuzzy._MEMO) == 1


def test_relabelled_bases_share_an_entry(monkeypatch):
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A = standard_qorder(godel_chain(4), "dR")
    B = QOrderedSet(A.quantale, ("p", "q", "r", "s"), A.hom)
    assert A != B
    for kind in ("lower", "upper"):
        assert _monotone_value_tuples(B, kind, None) is _monotone_value_tuples(A, kind, None)
    assert len(fuzzy._MEMO) == 2


def test_a_non_symmetric_base_keeps_two_entries(monkeypatch):
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A = random_qorder(boolean4(), 4, random.Random(5))
    assert A.hom != transpose(A.hom)
    lowers, uppers = (_monotone_value_tuples(A, kind, None) for kind in ("lower", "upper"))
    assert lowers != uppers
    assert fuzzy._MEMO.keys() == {(A.quantale, A.hom), (A.quantale, transpose(A.hom))}


def test_a_refusal_through_the_dual_names_the_count_of_a_cold_walk(monkeypatch):
    """dL over Łukasiewicz-8: its upper walk, refused cold one short of
    its 5,064 values tried and written, and kept through dR's lower walk
    and then refused, names one count."""
    q = lukasiewicz_chain(8)
    dL, dR = standard_qorder(q, "dL"), standard_qorder(q, "dR")
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    with pytest.raises(BudgetExceeded) as cold:
        _monotone_value_tuples(dL, "upper", 5_063)
    assert fuzzy._MEMO == {}
    _monotone_value_tuples(dR, "lower", None)
    with pytest.raises(BudgetExceeded) as warm:
        _monotone_value_tuples(dL, "upper", 5_063)
    assert cold.value.count == warm.value.count == 5_064
    assert cold.value.what == warm.value.what == "walk values tried and written"
    assert len(_monotone_value_tuples(dL, "upper", 5_064)) == 576
