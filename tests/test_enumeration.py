"""The pruned enumeration of fuzzy lower/upper sets against the product
filter it replaced and the plain walk it shares work over, and the
budget it counts: |Q| values tried per node it visits and n values
written per set.  The forward-Cauchy ideals, read off the hom table,
against the walk and filter they replaced."""

import gc
import inspect
import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from qideal import fuzzy, ideals
from qideal.errors import BudgetExceeded
from qideal.fuzzy import (
    _inhabited,
    _lower_violation,
    _monotone_value_tuples,
    _upper_violation,
    _walk,
    enumerate_monotone_sets,
    yoneda,
)
from qideal.ideals import _forward_cauchy, enumerate_ideals
from qideal.qorder import build_qorder, crisp_qorder, random_qorder, standard_qorder
from qideal.quantale import (
    boolean4,
    build_finite_quantale,
    godel_chain,
    lukasiewicz_chain,
    nilpotent_minimum_chain,
)
from test_quantale import m3_with_top

L3 = lukasiewicz_chain(3)
L8 = lukasiewicz_chain(8)


def product_oracle(A, kind):
    """Every vector of itertools.product that passes the pair check."""
    check = _lower_violation if kind == "lower" else _upper_violation
    return tuple(vec for vec in itertools.product(range(A.quantale.n), repeat=A.n)
                 if check(A, vec) is None)


def walk_oracle(A, kind):
    """The plain walk: one call per admissible prefix, each trying every
    value against the coordinates already fixed."""
    q = A.quantale
    n, m = A.n, q.n
    leq, tens, res, hom = q.leq, q.tensor_table, q.res_table, A.hom
    values = range(m)
    up = [sum(1 << v for v in values if leq[a][v]) for a in values]
    down = [sum(1 << v for v in values if leq[v][a]) for a in values]
    lift = hom if kind == "lower" else tuple(zip(*hom))
    own = [sum(1 << v for v in values if leq[tens[v][hom[i][i]]][v]) for i in range(n)]
    beside = [[[up[t[u]] & down[r[u]] for u in values]
               for t, r in ((tens[lift[i][j]], res[lift[j][i]]) for j in range(i))]
              for i in range(n)]
    out = []

    def extend(prefix):
        i = len(prefix)
        mask = own[i]
        for row, u in zip(beside[i], prefix):
            mask &= row[u]
        kept = [prefix + (v,) for v in values if mask >> v & 1]
        if i + 1 == n:
            out.extend(kept)
        else:
            for p in kept:
                extend(p)

    extend(())
    return tuple(out)


def assert_walk_matches_oracle(A):
    """Same sets as the plain walk, and a count of |Q| per node visited
    and n per set written, refused one below and admitted at it, with
    the memo cold and then warm."""
    for kind in ("lower", "upper"):
        sets = walk_oracle(A, kind)
        count = A.quantale.n * inner_calls(A, kind) + A.n * len(sets)
        assert _walk(A, kind, count) == (sets, count), (A.catalog, kind)
        # the memo keeps the upper sets as the lower sets of the dual
        fuzzy._MEMO.pop((A.quantale, A.hom if kind == "lower" else tuple(zip(*A.hom))), None)
        for _ in ("cold", "warm"):
            with pytest.raises(BudgetExceeded,
                               match=f"^{count} walk values tried and written"):
                _monotone_value_tuples(A, kind, count - 1)
            assert _monotone_value_tuples(A, kind, count) == sets


def fc_walk_oracle(A):
    """The forward-Cauchy ideals as the walk and filter found them: the
    pointwise decider over every inhabited lower set, in walk order."""
    return tuple(p.values for p in enumerate_monotone_sets(A, "lower", budget=10 ** 12)
                 if _inhabited(A, p.values) and _forward_cauchy(p)[0])


def assert_fc_matches_oracle(A):
    """The same ideals in the same order, on A, charged n * n."""
    got = enumerate_ideals(A, "fc", budget=A.n * A.n)
    assert tuple(p.values for p in got) == fc_walk_oracle(A), A.catalog
    assert all(p.base is A for p in got)
    with pytest.raises(BudgetExceeded, match=f"^{A.n * A.n} hom entries read"):
        enumerate_ideals(A, "fc", budget=A.n * A.n - 1)


def assert_matches_oracle(A):
    for kind in ("lower", "upper"):
        got = _monotone_value_tuples(A, kind, fuzzy.DEFAULT_BUDGET)
        assert got == product_oracle(A, kind), (A.catalog, kind)
    assert_walk_matches_oracle(A)
    assert_fc_matches_oracle(A)


def l3_times_l2():
    """Łukasiewicz-3 times the two-element chain, pointwise: a non-linear
    quantale whose tensor is not the meet."""
    elements = tuple(f"{i}{j}" for i in range(3) for j in range(2))
    leq = [[a[0] <= b[0] and a[1] <= b[1] for b in elements] for a in elements]
    tensor = [[f"{max(0, int(a[0]) + int(b[0]) - 2)}{min(a[1], b[1])}"
               for b in elements] for a in elements]
    return build_finite_quantale(elements, leq, tensor, "21")


def two_chain(q):
    return crisp_qorder(q, ("a", "b"), ((True, True), (False, True)))


@pytest.mark.parametrize("q", [boolean4(), L3, godel_chain(4)],
                         ids=["boolean4", "L3", "G4"])
def test_every_two_point_order(q):
    one = q.elements[q.unit]
    for ab, ba in itertools.product(q.elements, repeat=2):
        assert_matches_oracle(build_qorder(q, ("a", "b"), [[one, ab], [ba, one]]))


@pytest.mark.parametrize("k", range(2, 7))
def test_named_orders_over_lukasiewicz(k):
    q = lukasiewicz_chain(k)
    for name in ("dL", "dR"):
        assert_matches_oracle(standard_qorder(q, name))
    for n in (1, 2, 3):
        assert_matches_oracle(standard_qorder(q, "discrete", n=n))


@pytest.mark.parametrize("k", range(2, 11))
def test_walk_matches_oracle_on_lukasiewicz(k):
    q = lukasiewicz_chain(k)
    for name in ("dL", "dR"):
        assert_walk_matches_oracle(standard_qorder(q, name))


@pytest.mark.parametrize("q", [L3, boolean4()], ids=["L3", "boolean4"])
def test_walk_matches_oracle_on_discrete(q):
    for n in range(1, 8):
        assert_walk_matches_oracle(standard_qorder(q, "discrete", n=n))


def inner_calls(A, kind):
    """Calls of the functions nested in _walk (comprehensions aside)."""
    inner = {c for c in _walk.__code__.co_consts
             if inspect.iscode(c) and not c.co_name.startswith("<")}
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code in inner

    sys.setprofile(count)
    try:
        _walk(A, kind, fuzzy.DEFAULT_BUDGET)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("n", range(1, 9))
def test_walk_shares_equal_states_on_discrete(n):
    # every prefix leaves the same state, so each depth is explored once
    # (the plain walk makes 3,280 calls at n = 8)
    assert inner_calls(standard_qorder(L3, "discrete", n=n), "lower") <= 1 + (n - 1) * 3


def test_walk_shares_equal_states_on_lukasiewicz10():
    A = standard_qorder(lukasiewicz_chain(10), "dL")
    for kind in ("lower", "upper"):
        assert inner_calls(A, kind) <= 200    # the plain walk makes 3,318


def test_walk_leaves_no_garbage_cycle():
    A = standard_qorder(lukasiewicz_chain(6), "dL")
    gc.collect()
    gc.disable()
    try:
        _walk(A, "lower", fuzzy.DEFAULT_BUDGET)
        assert gc.collect() == 0
    finally:
        gc.enable()


# M3 with a top is not distributive, and Gödel-5 is the census quantale
RANDOM_BASES = [boolean4(), godel_chain(3), nilpotent_minimum_chain(4), L3,
                l3_times_l2(), m3_with_top(), godel_chain(5)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RANDOM_BASES), st.integers(3, 4), st.integers(0, 2 ** 32))
@example(m3_with_top(), 4, 29)
@example(godel_chain(5), 4, 29)
def test_random_orders(q, n, seed):
    assert_matches_oracle(random_qorder(q, n, random.Random(seed)))


def test_a_value_tensored_with_any_degree_stays_below_it():
    """v & d <= v & 1 = v by integrality: the walk's root state admits
    every value at every coordinate, without testing v & A(i,i) <= v."""
    for q in [*RANDOM_BASES, godel_chain(4), *map(lukasiewicz_chain, range(2, 17))]:
        leq, tens = q.leq, q.tensor_table
        assert all(leq[tens[v][d]][v] for v in range(q.n) for d in range(q.n)), q.catalog


@pytest.mark.parametrize("name", ["dL", "dR"])
def test_fc_matches_oracle_over_m3_with_a_top(name):
    assert_fc_matches_oracle(standard_qorder(m3_with_top(), name))


@pytest.mark.parametrize("q", [L3, boolean4(), m3_with_top()], ids=["L3", "boolean4", "M3"])
def test_fc_collapses_the_rows_of_equivalent_points(q):
    """Points with hom degree 1 both ways have one principal lower set
    between them: a and b of twins, and all three of indiscrete."""
    one, zero = q.elements[q.unit], q.elements[q.bottom]
    twins = [[one, one, one, zero], [one, one, one, zero],
             [zero, zero, one, zero], [one, one, one, one]]
    indiscrete = [[one] * 3] * 3
    for labels, hom, count in (("abcd", twins, 3), ("abc", indiscrete, 1)):
        A = build_qorder(q, tuple(labels), hom)
        assert_fc_matches_oracle(A)
        assert len(enumerate_ideals(A, "fc")) == count


def test_fc_reads_no_walk(monkeypatch):
    """dL over Lukasiewicz-30, whose walk the default budget refuses,
    has its 30 ideals at 900 hom entries read, with the walk stubbed."""
    def walk(*args):
        raise AssertionError("the walk ran")
    monkeypatch.setattr(fuzzy, "_walk", walk)
    A = standard_qorder(lukasiewicz_chain(30), "dL")
    got = enumerate_ideals(A, "fc", budget=900)
    assert [p.values for p in got] == sorted(yoneda(A, a).values for a in A.elements)
    assert len(got) == 30


def test_budget_verdict_does_not_depend_on_the_cache(monkeypatch):
    A = two_chain(L3)
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    assert len(enumerate_monotone_sets(A, "lower")) == 6
    with pytest.raises(BudgetExceeded):
        enumerate_monotone_sets(A, "lower", budget=3)
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    with pytest.raises(BudgetExceeded):
        enumerate_monotone_sets(A, "lower", budget=3)
    assert len(enumerate_monotone_sets(A, "lower")) == 6


def test_budget_counts_walk_values_tried_and_written():
    A = two_chain(L3)
    with pytest.raises(BudgetExceeded, match="walk values tried and written") as err:
        enumerate_monotone_sets(A, "upper", budget=0)
    assert err.value.count > 0 and err.value.budget == 0


def test_walk_refusal_says_its_count_is_a_lower_bound():
    """The walk charges as it goes, so a refusal names the count where it
    stopped and says so: dL over Lukasiewicz-17 needs 10,031,649 values
    tried and written, stops at 5,021,494 under the default budget, and
    under a budget of that count stops again further on.  Its 17
    forward-Cauchy ideals need no walk."""
    A = standard_qorder(lukasiewicz_chain(17), "dL")
    with pytest.raises(BudgetExceeded, match=r"^5021494 walk values tried and written exceed "
                       r"the budget of 5000000 \(a lower bound: the work stopped part-way\)$"
                       ) as err:
        enumerate_ideals(A, "lower")
    assert err.value.partial
    assert len(enumerate_ideals(A, "fc")) == 17
    with pytest.raises(BudgetExceeded) as err:
        enumerate_monotone_sets(A, "lower", budget=5_021_494)
    assert err.value.partial and 5_021_494 < err.value.count <= 10_031_649


@pytest.mark.parametrize("name", ["dL", "dR"])
def test_lukasiewicz8_work_count(monkeypatch, name):
    A = standard_qorder(L8, name)
    for kind in ("lower", "upper"):
        assert len(enumerate_monotone_sets(A, kind)) == 576
        # the kept walk charges its whole count against a budget of
        # nothing: 8 values tried at each of 57 nodes, 8 written per set
        with pytest.raises(BudgetExceeded) as err:
            enumerate_monotone_sets(A, kind, budget=0)
        assert err.value.count == 8 * 57 + 8 * 576 == 5_064
        assert not err.value.partial    # a kept count is the whole walk's
    principal = {yoneda(A, a).values for a in A.elements}
    for cls in ("irr", "flat"):
        assert {p.values for p in enumerate_ideals(A, cls)} == principal
    # 8,192 inhabited lower sets (of 61,440), each joining the 14
    # generator rows of each of its 13 thresholds: refused one short of
    # that count before deciding, and admitted at exactly that count (the
    # decider is stubbed, the charge is not)
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A = standard_qorder(lukasiewicz_chain(14), name)
    count = 8_192 * 13 * 14
    with pytest.raises(BudgetExceeded, match=f"^{count} generator rows joined"):
        enumerate_ideals(A, "irr", budget=count - 1)
    monkeypatch.setattr(ideals, "_first_break", lambda A, kind, vals: (0, [], 1))
    assert enumerate_ideals(A, "irr", budget=count) == ()


@pytest.mark.parametrize("cls", ["flat", "irr"])
def test_class_enumeration_wraps_only_the_ideals(monkeypatch, cls):
    """Flat and irreducible enumeration decide on value tuples and make
    a FuzzySet for each ideal it returns and no other set."""
    wrapped = []

    def wrap(A, value_tuples):
        wrapped.extend(value_tuples)
        return fuzzy._fuzzy_sets(A, value_tuples)
    monkeypatch.setattr(ideals, "_fuzzy_sets", wrap)
    A = standard_qorder(L8, "dL")
    got = enumerate_ideals(A, cls)
    assert [p.values for p in got] == wrapped == sorted(yoneda(A, a).values for a in A.elements)
