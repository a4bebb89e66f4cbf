"""Open and closed families, cocontinuity routes, interval
characterizations; the closure axioms against a loop over every pair of
members, with every failure witness replayed and equal to the first
failing pair, and the closure of the walk's sets that lets a family of
every set pass with nothing tested or charged; families, memberships and
map checks against the context with its principal ideals kept; and each
context, empty by proof or built, against the route that decides every
class ideal and seeks the suprema of the non-principal ones."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qideal import scott
from qideal.errors import (
    BudgetExceeded,
    DecompositionMismatch,
    GridTooCoarse,
    ShapeMismatch,
    ValidationError,
)
from qideal.fuzzy import (
    FuzzySet,
    _lower_violation,
    _monotone_value_tuples,
    _sub_idx,
    _tensor_idx,
    _upper_violation,
    enumerate_monotone_sets,
    fuzzy_set,
    suprema,
    tensor_degree,
    transport,
)
from qideal.ideals import enumerate_ideals, ideal_class_tag
from qideal.interval import (
    interval_dR_scott_closed,
    interval_quantale,
    verify_ordinal_sum_generation,
)
from qideal.qorder import (
    all_qmaps,
    build_qmap,
    build_qorder,
    crisp_qorder,
    random_qorder,
    standard_qorder,
)
from qideal.quantale import (
    boolean4,
    build_finite_quantale,
    godel_chain,
    lukasiewicz_chain,
    nilpotent_minimum_chain,
)
from qideal.scott import (
    ScottStructure,
    _scott_context,
    check_open_preimages,
    check_structure_axioms,
    cocontinuity_equivalence,
    generate_scott_structure,
    is_scott_member,
)
from qideal.suites import DEFAULT_SEED, _battery, _full_battery
from test_deciders import pointwise, two_point_orders
from test_enumeration import RANDOM_BASES
from test_quantale import m3_with_top

L4 = lukasiewicz_chain(4)
DL4 = standard_qorder(L4, "dL")
LQ = interval_quantale("lukasiewicz")


def test_identity_and_constants_are_open():
    ident = fuzzy_set(DL4, {e: e for e in DL4.elements})
    ok, w = is_scott_member(ident, "topology")
    assert ok, w
    for p in L4.elements:
        ok, w = is_scott_member(fuzzy_set(DL4, (p,) * DL4.n), "top")
        assert ok, w


def test_membership_prechecks_monotonicity():
    third = Fraction(1, 3)
    rising = fuzzy_set(DL4, {e: e for e in DL4.elements})
    falling = fuzzy_set(DL4, [L4.elements[L4.neg_vector[L4.index(e)]]
                              for e in DL4.elements])
    ok, w = is_scott_member(falling, "topology")
    assert not ok and w["reason"] == "not an upper set"
    ok, w = is_scott_member(rising, "cotopology")
    assert not ok and w["reason"] == "not a lower set"
    with pytest.raises(ValueError):
        is_scott_member(rising, "sideways")
    with pytest.raises(ValueError):
        is_scott_member(rising, "topology", which="prime")


def test_non_member_witness_recomputes():
    # min tensor leaves some upper sets outside the open family
    A = standard_qorder(godel_chain(4), "dL")
    members = {m.values for m in
               generate_scott_structure(A, "topology").members}
    outside = [p for p in enumerate_monotone_sets(A, "upper")
               if p.values not in members]
    assert outside
    for psi in outside:
        ok, w = is_scott_member(psi, "topology")
        assert not ok and w["reason"] == "misses the supremum equation"
        ideal = fuzzy_set(A, w["ideal"])
        assert tensor_degree(ideal, psi) == w["tensor_degree"]
        assert psi.value(w["supremum"]) == w["at_supremum"]
        assert w["at_supremum"] != w["tensor_degree"]


@pytest.mark.parametrize("mode", ["topology", "cotopology"])
def test_luk4_families_are_strong(mode):
    S = generate_scott_structure(DL4, mode)
    assert S.members
    assert all(S.axioms.values()), S.axioms
    assert S.stratified and S.co_stratified and S.strong
    rep = check_structure_axioms(S)
    assert rep["flags"] == S.axioms
    assert all(v is None for v in rep["witnesses"].values())


def test_classical_coincidence_on_a_crisp_chain():
    b2 = godel_chain(2)
    P = crisp_qorder(b2, ("p0", "p1", "p2"),
                     tuple(tuple(i <= j for j in range(3)) for i in range(3)))
    opens = {m.values for m in generate_scott_structure(P, "topology").members}
    closeds = {m.values for m in generate_scott_structure(P, "cotopology").members}
    unit, bot = b2.unit, b2.bottom
    ups = {tuple(unit if i >= k else bot for i in range(3)) for k in range(4)}
    los = {tuple(unit if i < k else bot for i in range(3)) for k in range(4)}
    assert opens == ups
    assert closeds == los


def test_families_charge_the_pairs_they_check():
    # the 20 upper sets of dL over Łukasiewicz-4, each checked against
    # the 16 of its 20 lower sets that are not principal (all 20 have a
    # supremum), while the walk tries and writes 132 values
    with pytest.raises(BudgetExceeded, match="^320 pairs checked"):
        generate_scott_structure(DL4, "topology", "lower", budget=319)
    assert (generate_scott_structure(DL4, "topology", "lower", budget=320).members
            == generate_scott_structure(DL4, "topology", "lower").members)
    # a 6-point crisp antichain over the 2-chain: its 64 members are all
    # 64 upper sets, so the axioms hold with nothing tested or charged,
    # and only the walk's 396 values tried and written can refuse
    A = crisp_qorder(godel_chain(2), tuple(f"p{i}" for i in range(6)),
                     [[i == j for j in range(6)] for i in range(6)])
    S = generate_scott_structure(A, "topology", "fc")
    assert len(S.members) == 64
    assert axiom_charge(S) is None
    with pytest.raises(BudgetExceeded, match="^396 walk values tried and written"):
        check_structure_axioms(S, budget=395)
    assert check_structure_axioms(S, budget=396)["flags"] == S.axioms


def axiom_charge(S):
    """The one charge check_structure_axioms makes for S, read by
    wrapping the charge it calls, or None when it makes none."""
    record = []
    charge = scott._charge

    def recorded(count, budget, what, partial=False):
        record.append((count, what))
        charge(count, budget, what, partial)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scott, "_charge", recorded)
        check_structure_axioms(S)
    counts = [count for count, what in record if what == "closure pairs and scalings"]
    assert len(counts) <= 1, counts
    return counts[0] if counts else None


@pytest.mark.parametrize("mode", ["topology", "cotopology"])
def test_axioms_refuse_a_member_outside_the_universe(mode):
    rising = fuzzy_set(DL4, {e: e for e in DL4.elements})
    falling = fuzzy_set(DL4, [L4.elements[L4.neg_vector[L4.index(e)]]
                              for e in DL4.elements])
    stray, kind = (falling, "upper") if mode == "topology" else (rising, "lower")
    members = generate_scott_structure(DL4, mode).members + (stray,)
    S = ScottStructure(DL4, mode, "flat", members, {}, False, False, False)
    with pytest.raises(ValidationError, match=f"not a fuzzy {kind} set") as err:
        check_structure_axioms(S)
    assert err.value.witness == stray.as_dict()


def pair_loop_flags(S):
    """The axiom flags from the definitions, closure by the loop over
    every pair of members that the principal-filter test replaced."""
    A, q = S.base, S.base.quantale
    have = {m.values for m in S.members}

    def closed(table):
        return all(pointwise(table, v1, v2) in have for v1 in have for v2 in have)

    def scaled(table):
        return all(tuple(table[p][a] for a in v) in have
                   for p in range(q.n) for v in have)

    constants = all((p,) * A.n in have for p in range(q.n))
    meets, joins = closed(q.meet_table), closed(q.join_table)
    tensors, residuals = scaled(q.tensor_table), scaled(q.res_table)
    if S.mode == "topology":
        return {"O1": constants, "O2": meets, "O3": joins, "O4": tensors,
                "O5": residuals}
    return {"C1": constants, "C2": joins, "C3": meets, "C4": residuals,
            "C5": tensors}


def first_failing_pair(S, table):
    """The first member pair i < j, in member order, whose pointwise
    meet or join (by table) is not a member, or None."""
    vecs = [m.values for m in S.members]
    have = set(vecs)
    return next((pair for pair in itertools.combinations(vecs, 2)
                 if pointwise(table, *pair) not in have), None)


def replay_axioms(S, report):
    """Every false flag's witness recomputes to members (or a constant)
    whose meet, join or scaling is not a member; a closure witness is
    the first such pair."""
    A, q = S.base, S.base.quantale
    have = {m.values for m in S.members}
    pairs = {"O2": q.meet_table, "O3": q.join_table,
             "C2": q.join_table, "C3": q.meet_table}
    scalings = {"O4": q.tensor_table, "O5": q.res_table,
                "C4": q.res_table, "C5": q.tensor_table}
    for name, ok in report["flags"].items():
        w = report["witnesses"].get(name)
        if ok:
            assert w is None
        elif name in pairs:
            v1, v2 = (fuzzy_set(A, m).values for m in w["members"])
            out = pointwise(pairs[name], v1, v2)
            assert v1 in have and v2 in have and out not in have
            assert fuzzy_set(A, w["result"]).values == out
            assert (v1, v2) == first_failing_pair(S, pairs[name])
        elif name in scalings:
            p, v = q.index(w["p"]), fuzzy_set(A, w["member"]).values
            out = tuple(scalings[name][p][a] for a in v)
            assert v in have and out not in have
            assert fuzzy_set(A, w["result"]).values == out
        else:
            assert (q.index(w["constant"]),) * A.n not in have


def assert_axioms_match_the_pair_loop(A, rng):
    """Every class's open and closed families and, since those have not
    been seen to fail closure, subfamilies: each family less a random
    member, and a random half of the upper (lower) sets.  Returns how
    many closure flags were false."""
    broken = 0
    for mode, kind in (("topology", "upper"), ("cotopology", "lower")):
        universe = {p.values for p in enumerate_monotone_sets(A, kind)}
        families = [generate_scott_structure(A, mode, cls).members
                    for cls in ("fc", "flat", "irr")]
        for members in families[:]:
            if members:
                drop = rng.randrange(len(members))
                families.append(members[:drop] + members[drop + 1:])
        families.append(tuple(p for p in enumerate_monotone_sets(A, kind)
                              if rng.random() < 0.5))
        for members in families:
            S = ScottStructure(A, mode, "fc", members, {}, False, False, False)
            report = check_structure_axioms(S)
            assert report["flags"] == pair_loop_flags(S), (A.catalog, mode, members)
            replay_axioms(S, report)
            m, every = len(members), {p.values for p in members} == universe
            assert axiom_charge(S) == (None if every else m * (m - 1) + 2 * A.quantale.n * m)
            broken += sum(not report["flags"][name]
                          for name in ("O2", "O3", "C2", "C3") if name in report["flags"])
    return broken


@pytest.mark.parametrize("q", [boolean4(), lukasiewicz_chain(3), godel_chain(4)],
                         ids=["boolean4", "L3", "G4"])
def test_axioms_match_the_pair_loop_on_every_two_point_order(q):
    one = q.elements[q.unit]
    rng = random.Random(0)
    broken = sum(assert_axioms_match_the_pair_loop(
                     build_qorder(q, ("a", "b"), [[one, ab], [ba, one]]), rng)
                 for ab, ba in itertools.product(q.elements, repeat=2))
    assert broken


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RANDOM_BASES), st.integers(3, 4), st.integers(0, 2 ** 32))
def test_axioms_match_the_pair_loop_on_random_orders(q, n, seed):
    rng = random.Random(seed)
    assert_axioms_match_the_pair_loop(random_qorder(q, n, rng), rng)


def assert_the_walk_is_closed(A):
    """The lower (upper) sets of the walk contain the constants and are
    closed under pointwise meets and joins and under tensoring and
    residuating by a constant, so a family of all of them passes every
    axiom with nothing tested."""
    q = A.quantale
    for kind in ("lower", "upper"):
        sets = _monotone_value_tuples(A, kind, BIG)
        have = set(sets)
        assert all((p,) * A.n in have for p in range(q.n)), (A.hom, kind)
        for table in (q.meet_table, q.join_table):
            assert all(pointwise(table, v1, v2) in have
                       for v1, v2 in itertools.combinations(sets, 2)), (A.hom, kind)
        for table in (q.tensor_table, q.res_table):
            assert all(tuple(table[p][a] for a in v) in have
                       for p in range(q.n) for v in sets), (A.hom, kind)
    assert_every_set_family_is_taken_whole(A)


def assert_every_set_family_is_taken_whole(A):
    """The family of every upper (lower) set gets the pair loop's flags,
    all true, with no witness and no charge."""
    for mode, kind in (("topology", "upper"), ("cotopology", "lower")):
        S = ScottStructure(A, mode, "fc", enumerate_monotone_sets(A, kind), {}, False, False,
                           False)
        flags = pair_loop_flags(S)
        assert all(flags.values()), (A.hom, mode)
        assert check_structure_axioms(S) == {"flags": flags, "witnesses": {}}, (A.hom, mode)
        assert axiom_charge(S) is None, (A.hom, mode)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RANDOM_BASES), st.integers(2, 4), st.integers(0, 2 ** 32))
def test_the_walk_is_closed_on_random_orders(q, n, seed):
    assert_the_walk_is_closed(random_qorder(q, n, random.Random(seed)))


@pytest.mark.parametrize("A", [standard_qorder(m3_with_top(), "dL"),
                               standard_qorder(m3_with_top(), "dR"),
                               DL4, standard_qorder(L4, "dR")],
                         ids=["dL-m3-top", "dR-m3-top", "dL-L4", "dR-L4"])
def test_the_walk_is_closed_on_named_orders(A):
    assert_the_walk_is_closed(A)


def test_every_set_families_of_the_oracle_bases():
    """The bases that test_deciders checks against its pair oracles,
    less its random orders (which test_the_walk_is_closed_on_random_orders
    covers)."""
    bases = [*(A for q in (boolean4(), lukasiewicz_chain(3), godel_chain(4), m3_with_top())
               for A in two_point_orders(q)),
             *(standard_qorder(lukasiewicz_chain(k), name) for k in range(2, 7)
               for name in ("dL", "dR")),
             *(standard_qorder(lukasiewicz_chain(k), "discrete", n=n) for k in range(2, 7)
               for n in (1, 2, 3)),
             standard_qorder(godel_chain(4), "dL"),
             standard_qorder(m3_with_top(), "discrete", n=2),
             standard_qorder(m3_with_top(), "dL")]
    for A in bases:
        assert_every_set_family_is_taken_whole(A)


@pytest.mark.parametrize("mode", ["topology", "cotopology"])
def test_every_set_but_one_constant_is_tested(mode):
    """A family one short of every set is tested in full: dropping the
    constant 1/3 of dL over Łukasiewicz-4 fails O1 (C1) on it."""
    kind = "upper" if mode == "topology" else "lower"
    third = L4.index(Fraction(1, 3))
    members = tuple(p for p in enumerate_monotone_sets(DL4, kind)
                    if p.values != (third,) * DL4.n)
    assert len(members) == 19
    S = ScottStructure(DL4, mode, "fc", members, {}, False, False, False)
    report = check_structure_axioms(S)
    name = "O1" if mode == "topology" else "C1"
    assert not report["flags"][name]
    assert report["witnesses"][name] == {"constant": Fraction(1, 3)}
    assert report["flags"] == pair_loop_flags(S)
    replay_axioms(S, report)
    assert axiom_charge(S) == 19 * 18 + 2 * 4 * 19


def test_families_that_are_not_every_set():
    """The families whose closure is tested pair by pair: the flat open
    family of dR over Gödel-7 (8 of its 127 upper sets), a sublattice
    passed in through the API (the 23 of the 64 upper sets of dL over
    Gödel-5 that are 0 at the bottom), and that sublattice less every
    other member, which is not closed."""
    S = generate_scott_structure(standard_qorder(godel_chain(7), "dR"), "topology")
    assert (len(S.members), S.axioms) == (8, pair_loop_flags(S))
    # 8 * 7 member pairs and 2 * 7 * 8 scalings, under the walk's charge
    assert axiom_charge(S) == 8 * 7 + 2 * 7 * 8
    A = standard_qorder(godel_chain(5), "dL")
    bottom = A.quantale.bottom
    sub = tuple(p for p in enumerate_monotone_sets(A, "upper") if p.values[0] == bottom)
    assert len(sub) == 23
    T, half = (ScottStructure(A, "topology", "flat", members, {}, False, False, False)
               for members in (sub, sub[::2]))
    closed = []
    for family in (T, half):
        report = check_structure_axioms(family)
        assert report["flags"] == pair_loop_flags(family)
        replay_axioms(family, report)
        closed.append(report["flags"]["O2"] and report["flags"]["O3"])
    assert closed == [True, False]
    # the 23 * 22 member pairs of both closure axioms and the 2 * 5 * 23
    # scalings, above the walk's 425 values tried and written
    count = 23 * 22 + 2 * 5 * 23
    with pytest.raises(BudgetExceeded, match=f"^{count} closure pairs and scalings"):
        check_structure_axioms(T, budget=count - 1)
    assert check_structure_axioms(T, budget=count)["flags"] == pair_loop_flags(T)


@pytest.mark.parametrize("q", [boolean4(), nilpotent_minimum_chain(4)])
def test_closed_family_is_the_negated_open_family(q):
    A = standard_qorder(q, "dL")
    opens = generate_scott_structure(A, "topology", which="irr").members
    closeds = generate_scott_structure(A, "cotopology", which="irr").members
    negged = {tuple(q.neg_vector[v] for v in m.values) for m in opens}
    assert negged == {m.values for m in closeds}


@pytest.mark.parametrize("q", [godel_chain(2), lukasiewicz_chain(3)])
def test_cocontinuity_routes_agree_on_all_self_maps(q):
    B = standard_qorder(q, "dL")
    for f in all_qmaps(B, B):
        rep = cocontinuity_equivalence(f)
        assert rep["agree"], (f.mapping, rep)
        if rep["cocontinuous"]:
            ok, w = check_open_preimages(f)
            assert ok, (f.mapping, w)


def test_order_reversing_swap_fails_both_routes():
    q = lukasiewicz_chain(3)
    B = standard_qorder(q, "dL")
    e = q.elements
    swap = build_qmap(B, B, {e[0]: e[2], e[1]: e[1], e[2]: e[0]})
    rep = cocontinuity_equivalence(swap)
    assert not rep["cocontinuous"] and not rep["closed_preimage"]
    assert rep["agree"]


BIG = 10 ** 12
CLASSES = ("fc", "flat", "irr", "lower")
MODES = ("topology", "cotopology")
TWO_POINT = tuple(A for _, A in itertools.islice(_battery(0, None), 41))


@functools.lru_cache(maxsize=None)
def full_context(A, tag):
    """The Scott context with its principal ideals kept: every class
    ideal that has a supremum, with all its suprema, in enumeration
    order."""
    out = []
    for p in enumerate_ideals(A, tag, budget=BIG):
        sups = suprema(p)
        if sups:
            out.append((p.values, tuple(map(A.index, sups))))
    return tuple(out)


def full_violation(A, vals, mode, ctx):
    """Membership over a context as one test: the shape of vals first,
    then every supremum equation of every ideal of ctx."""
    q, lab = A.quantale, A.elements.__getitem__
    violation, shape, degree, key = (
        (_upper_violation, "an upper", _tensor_idx, "tensor_degree")
        if mode == "topology" else
        (_lower_violation, "a lower", _sub_idx, "sub_degree"))
    w = violation(A, vals)
    if w is not None:
        return {"reason": f"not {shape} set", "pair": (lab(w[0]), lab(w[1]))}
    for ivals, sups in ctx:
        d = degree(A, ivals, vals)
        for s in sups:
            if vals[s] != d:
                return {"reason": "misses the supremum equation",
                        "ideal": FuzzySet(A, ivals).as_dict(), "supremum": lab(s),
                        "at_supremum": q.elements[vals[s]], key: q.elements[d]}
    return None


def full_members(A, mode, cls):
    """Every upper (lower) set that passes full_violation on the full
    context, in enumeration order."""
    ctx = full_context(A, ideal_class_tag(cls))
    kind = "upper" if mode == "topology" else "lower"
    return tuple(p.values for p in enumerate_monotone_sets(A, kind, budget=BIG)
                 if full_violation(A, p.values, mode, ctx) is None)


def full_preimage_violation(f, mode, cls):
    ctx = full_context(f.source, ideal_class_tag(cls))
    for vals in full_members(f.target, mode, cls):
        v = full_violation(f.source, tuple(vals[j] for j in f.mapping), mode, ctx)
        if v is not None:
            return FuzzySet(f.target, vals).as_dict(), v
    return None


def full_cocontinuity(f, cls):
    """cocontinuity_equivalence with every ideal of the full context
    tested for a preserved supremum, principal ones included."""
    A, B = f.source, f.target
    witnesses = {}
    w = f.order_violation()
    if w is not None:
        witnesses["order"] = w
    else:
        for ivals, sups in full_context(A, ideal_class_tag(cls)):
            targets = set(suprema(transport(f, FuzzySet(A, ivals), "forward")))
            bad = next((s for s in sups if B.elements[f.mapping[s]] not in targets), None)
            if bad is not None:
                witnesses["sup_not_preserved"] = {
                    "ideal": FuzzySet(A, ivals).as_dict(), "supremum": A.elements[bad],
                    "image_of_supremum": B.elements[f.mapping[bad]],
                    "suprema_of_image": [b for b in B.elements if b in targets]}
                break
    cocontinuous = not witnesses
    bad = full_preimage_violation(f, "cotopology", cls)
    if bad is not None:
        witnesses["preimage_not_closed"] = {"closed_set": bad[0], "violation": bad[1]}
    return {"cocontinuous": cocontinuous, "closed_preimage": bad is None,
            "agree": cocontinuous == (bad is None), "witnesses": witnesses}


def assert_families_match_the_full_context(A):
    for mode, cls in itertools.product(MODES, CLASSES):
        want = full_members(A, mode, cls)
        S = generate_scott_structure(A, mode, cls, budget=BIG)
        assert tuple(m.values for m in S.members) == want, (A.hom, mode, cls)
        full = ScottStructure(A, mode, S.class_tag, tuple(FuzzySet(A, v) for v in want),
                              {}, False, False, False)
        assert S.axioms == check_structure_axioms(full, BIG)["flags"]


def assert_membership_matches_the_full_context(A):
    """Every value vector of A, upper, lower or neither."""
    q = A.quantale
    for mode, cls in itertools.product(MODES, CLASSES):
        ctx = full_context(A, ideal_class_tag(cls))
        for vals in itertools.product(range(q.n), repeat=A.n):
            got = is_scott_member(FuzzySet(A, vals), mode, cls, budget=BIG)
            want = full_violation(A, vals, mode, ctx)
            assert got == (want is None, want), (A.hom, vals, mode, cls)


def assert_maps_match_the_full_context(f):
    for cls in CLASSES:
        assert cocontinuity_equivalence(f, cls, budget=BIG) == full_cocontinuity(f, cls)
        bad = full_preimage_violation(f, "topology", cls)
        assert check_open_preimages(f, cls, budget=BIG) == (
            (True, None) if bad is None else (False, {"open_set": bad[0],
                                                      "violation": bad[1]}))


def test_two_point_families_and_members_match_the_full_context():
    assert len(TWO_POINT) == 41
    for A in TWO_POINT:
        assert_families_match_the_full_context(A)
        assert_membership_matches_the_full_context(A)


NAMED_BASES = [(q, name) for q in (godel_chain(5), godel_chain(7), nilpotent_minimum_chain(5),
                                   *map(lukasiewicz_chain, range(4, 9)), m3_with_top())
               for name in ("dL", "dR")]


@pytest.mark.parametrize("q, name", NAMED_BASES,
                         ids=[f"{name}-{q.n}-{(q.catalog or ('m3-top',))[0]}"
                              for q, name in NAMED_BASES])
def test_named_families_match_the_full_context(q, name):
    assert_families_match_the_full_context(standard_qorder(q, name))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(RANDOM_BASES), st.integers(2, 4), st.integers(0, 2 ** 32))
def test_random_families_and_members_match_the_full_context(q, n, seed):
    A = random_qorder(q, n, random.Random(seed))
    assert_families_match_the_full_context(A)
    if n <= 3:
        assert_membership_matches_the_full_context(A)


def test_prop57_maps_match_the_full_context():
    q = lukasiewicz_chain(3)
    A = crisp_qorder(q, ("p0", "p1", "p2"),
                     tuple(tuple(i <= j for j in range(3)) for i in range(3)))
    B = standard_qorder(q, "dL")
    maps = [f for src, dst in ((A, B), (B, A)) for f in all_qmaps(src, dst)]
    assert len(maps) == 54
    for f in maps:
        assert_maps_match_the_full_context(f)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(RANDOM_BASES), st.integers(2, 3), st.integers(2, 3),
       st.integers(0, 2 ** 32))
def test_random_maps_match_the_full_context(q, m, n, seed):
    rng = random.Random(seed)
    for f in all_qmaps(random_qorder(q, m, rng), random_qorder(q, n, rng)):
        assert_maps_match_the_full_context(f)


def test_the_context_keeps_only_non_principal_ideals():
    g5 = godel_chain(5)
    for name, size in (("dL", 11), ("dR", 37)):
        A = standard_qorder(g5, name)
        ctx = _scott_context(A, "flat", BIG)
        assert len(ctx) == size
        assert ctx == tuple((v, s) for v, s in full_context(A, "flat")
                            if v[s[0]] != g5.unit)
    for k, name, tag in itertools.product(range(3, 13), ("dL", "dR"), ("flat", "irreducible")):
        assert _scott_context(standard_qorder(lukasiewicz_chain(k), name), tag, BIG) == ()


def test_interval_dR_closedness_accepts_and_rejects():
    assert interval_dR_scott_closed(lambda x: x, LQ)["scott_closed"]
    assert interval_dR_scott_closed(lambda x: min(1.0, x + 0.25),
                                    LQ)["scott_closed"]
    rep = interval_dR_scott_closed(lambda x: 0.0 if x <= 0.5 else 1.0, LQ)
    assert not rep["right_continuous"]
    assert rep["witnesses"]["right_continuity"]["at"] == pytest.approx(0.5)
    rep = interval_dR_scott_closed(lambda x: 0.6 - abs(x - 0.5), LQ)
    assert not rep["order_preserving"]
    assert rep["witnesses"]["order_preservation"] is not None


def test_interval_dR_guards():
    with pytest.raises(GridTooCoarse):
        interval_dR_scott_closed(lambda x: x, LQ, grid=16)
    with pytest.raises(ShapeMismatch):
        interval_dR_scott_closed(lambda x: x, lukasiewicz_chain(3))


def test_generation_on_the_lukasiewicz_interval():
    rep = verify_ordinal_sum_generation(lambda x: min(1.0, x + 0.25), LQ)
    assert rep["max_deviation"] <= 1e-9, rep
    assert rep["members_closed_on_grid"]
    assert rep["pieces"] == ((0.0, 1.0, "lukasiewicz"),)


def test_generation_on_the_min_interval():
    gq = interval_quantale("min")
    assert verify_ordinal_sum_generation(lambda x: x, gq)["max_deviation"] <= 1e-9
    assert verify_ordinal_sum_generation(lambda x: 1.0, gq)["max_deviation"] <= 1e-9


def test_generation_on_the_product_interval():
    pq = interval_quantale("product")
    rep = verify_ordinal_sum_generation(lambda x: x ** 0.5, pq)
    assert rep["max_deviation"] <= 1e-6, rep


def test_generation_on_an_ordinal_sum():
    oq = interval_quantale("ordinal_sum",
                           pieces=((0.0, 0.5, "lukasiewicz"),
                                   (0.5, 1.0, "product")))
    rep = verify_ordinal_sum_generation(lambda x: min(1.0, x + 0.125), oq)
    assert rep["max_deviation"] <= 1e-6, rep
    assert len(rep["pieces"]) == 2


def test_generation_rejects_nilpotent_minimum():
    nq = interval_quantale("nilpotent_minimum")
    with pytest.raises(DecompositionMismatch) as err:
        verify_ordinal_sum_generation(lambda x: x, nq)
    assert err.value.witness == pytest.approx(0.5)


def test_generation_input_guards():
    with pytest.raises(ValidationError, match="above"):
        verify_ordinal_sum_generation(lambda x: 0.5 * x, LQ)
    with pytest.raises(ValidationError, match="closed"):
        verify_ordinal_sum_generation(lambda x: 0.0 if x <= 0.5 else 1.0, LQ)
    with pytest.raises(ShapeMismatch):
        verify_ordinal_sum_generation(lambda x: x, lukasiewicz_chain(3))


def context_oracle(A, tag):
    """The context as it was first built: the suprema of every class
    ideal, dropping those with a supremum at which the ideal is 1."""
    out = []
    for p in enumerate_ideals(A, tag):
        sups = tuple(map(A.index, suprema(p)))
        if sups and p.values[sups[0]] != A.quantale.unit:
            out.append((p.values, sups))
    return tuple(out)


def test_the_context_seeks_no_supremum_of_a_principal_ideal(monkeypatch):
    """A principal ideal is a column of the hom table and is left out
    before suprema runs; the irreducible class, and the flat class under
    double negation, seek no supremum at all, as their contexts are
    empty by proof; and the context is the one the suprema test gave."""
    rng = random.Random(11)
    bases = [standard_qorder(godel_chain(4), name) for name in ("dL", "dR")]
    bases += [random_qorder(q, 3, rng)
              for q in (godel_chain(3), boolean4(), m3_with_top(), lukasiewicz_chain(4),
                        nilpotent_minimum_chain(4))
              for _ in range(3)]
    sought = []

    def recorded(phi):
        sought.append(phi.values)
        return suprema(phi)
    monkeypatch.setattr(scott, "suprema", recorded)
    kept = 0
    for A in bases:
        columns = set(zip(*A.hom))
        built = not A.quantale.has_double_negation
        for tag in ("flat", "irreducible"):
            del sought[:]
            ctx = _scott_context(A, tag, None)
            assert ctx == context_oracle(A, tag), (A.catalog, tag)
            assert sought == ([p.values for p in enumerate_ideals(A, tag)
                               if p.values not in columns] if tag == "flat" and built else [])
            kept += len(ctx)
    assert kept


def product_quantale(p, q):
    """The pointwise product of two finite quantales, built from their
    tables; a product of chains is neither a chain nor a frame."""
    pairs = [(i, j) for i in range(p.n) for j in range(q.n)]

    def label(i, j):
        return f"{p.elements[i]};{q.elements[j]}"
    return build_finite_quantale(
        tuple(label(i, j) for i, j in pairs),
        [[p.leq[i][k] and q.leq[j][m] for k, m in pairs] for i, j in pairs],
        [[label(p.tensor(i, k), q.tensor(j, m)) for k, m in pairs] for i, j in pairs],
        label(p.unit, q.unit))


L3, L2 = lukasiewicz_chain(3), lukasiewicz_chain(2)
# id -> the quantale, the sizes of its seeded orders (20 of each size)
CONTEXT_QUANTALES = {
    "L3xL3": (product_quantale(L3, L3), (2, 3, 4)),
    "L3xL2": (product_quantale(L3, L2), (2, 3, 4)),
    "NM4xL2": (product_quantale(nilpotent_minimum_chain(4), L2), (2, 3, 4)),
    "G3xL3": (product_quantale(godel_chain(3), L3), (2, 3, 4)),
    "boolean4": (boolean4(), (2, 3, 4)),
    "godel-4": (godel_chain(4), (2, 3, 4)),
    # the fold route over every set is slow on 4 points
    "m3-top": (m3_with_top(), (2, 3)),
}


def assert_contexts_match_the_oracle(A):
    """Every class's context equals the oracle route's, which decides
    every class ideal, drops the principal ones and seeks the suprema of
    the rest.  Returns how many irreducible ideals are not principal
    and the size of the flat context."""
    for tag in ("fc", "flat", "irreducible", "lower"):
        assert _scott_context(A, tag, BIG) == context_oracle(A, tag), (A.hom, tag)
    columns = set(zip(*A.hom))
    return (sum(p.values not in columns for p in enumerate_ideals(A, "irr", budget=BIG)),
            len(_scott_context(A, "flat", BIG)))


@pytest.mark.parametrize("name", CONTEXT_QUANTALES)
def test_contexts_equal_the_oracle_route(name):
    """dL, dR and 20 seeded orders of each size: the irreducible context
    is empty though non-principal irreducible ideals occur (on all but
    the chains and M3 with a top, whose unit is join-irreducible), and
    only a quantale without double negation keeps a flat context (Goedel
    ones do; M3 with a top has none on these bases)."""
    q, sizes = CONTEXT_QUANTALES[name]
    rng = random.Random(3)
    bases = [standard_qorder(q, w) for w in ("dL", "dR")]
    bases += [random_qorder(q, n, rng) for n in sizes for _ in range(20)]
    irr, flat = map(sum, zip(*map(assert_contexts_match_the_oracle, bases)))
    assert (irr > 0) == (not q.unit_join_irreducible), irr
    assert (flat > 0) == (not q.has_double_negation and name != "m3-top"), flat


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RANDOM_BASES), st.integers(2, 4), st.integers(0, 2 ** 32))
def test_random_contexts_equal_the_oracle_route(q, n, seed):
    assert_contexts_match_the_oracle(random_qorder(q, n, random.Random(seed)))


def test_only_the_godel_bases_of_scott_axioms_build_a_flat_context():
    """The suite's other quantales, boolean4 and Lukasiewicz-3, have
    double negation; some of its Goedel-4 bases keep a flat context, so
    the built route is still exercised by the suite."""
    built = [desc for desc, A in _full_battery(DEFAULT_SEED, None)
             if _scott_context(A, "flat", None)]
    assert built and all(desc.endswith("over godel-4") for desc in built), built
