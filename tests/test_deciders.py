"""The threshold deciders for flat and irreducible ideals against the
pair scans they replaced and the meet shortcut for frames, with every
failure witness replayed from the definitions and equal, break for
break, to a generator-row fold written from the row formulas (on a
distributive lattice) or to the per-set fold over every set (on any
other); the break row that the generator scan names against the
largest die(c) from the row formulas, and two misplaced breaks that
the generator-row fold catches; the forward-Cauchy dominance masks against the pointwise loop
they replaced, pair for pair; inhabitedness against the join of the
values; and every classify_ideal report on seeded census-sized bases
over the four census quantales against the generator-row fold and the
pointwise loop, with three mutated break builders that it catches."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qideal import fuzzy, ideals
from qideal.fuzzy import (
    DEFAULT_BUDGET,
    FuzzySet,
    _inhabited,
    _monotone_value_tuples,
    fuzzy_set,
    yoneda,
)
from qideal.ideals import (
    _forward_cauchy,
    classify_ideal,
    enumerate_ideals,
)
from qideal.qorder import build_qorder, random_qorder, standard_qorder
from qideal.quantale import (
    FiniteQuantale,
    _prime_tables,
    boolean4,
    godel_chain,
    lukasiewicz_chain,
    nilpotent_minimum_chain,
)
from test_enumeration import RANDOM_BASES
from test_quantale import m3_with_top


def sub(q, v1, v2):
    """Inclusion degree: meet over x of v1(x) -> v2(x)."""
    return q.meet_all(q.res_table[a][b] for a, b in zip(v1, v2))


def tensor(q, v1, v2):
    """Intersection degree: join over x of v1(x) & v2(x)."""
    return q.join_all(q.tensor_table[a][b] for a, b in zip(v1, v2))


def pointwise(table, v1, v2):
    return tuple(table[a][b] for a, b in zip(v1, v2))


def monotone(A, vec, kind):
    """vec is a lower set (vec(y) & A(x,y) <= vec(x) for every x, y) or an
    upper set (A(x,y) & vec(x) <= vec(y))."""
    q = A.quantale

    def holds(x, y):
        if kind == "lower":
            return q.leq[q.tensor_table[vec[y]][A.hom[x][y]]][vec[x]]
        return q.leq[q.tensor_table[A.hom[x][y]][vec[x]]][vec[y]]
    return all(holds(x, y) for x in range(A.n) for y in range(A.n))


def inhabited(phi):
    q = phi.base.quantale
    return q.join_all(phi.values) == q.unit


def pair_scan(phi, kind, degree, fold, combine):
    """Every pair of sets of the kind: degree(fold) = combine(degrees)."""
    A, q = phi.base, phi.base.quantale
    sets = _monotone_value_tuples(A, kind, DEFAULT_BUDGET)
    d = {v: degree(q, phi.values, v) for v in sets}
    return all(degree(q, phi.values, pointwise(fold, v1, v2)) == combine[d[v1]][d[v2]]
               for i, v1 in enumerate(sets) for v2 in sets[i:])


def brute_flat(phi):
    q = phi.base.quantale
    return inhabited(phi) and pair_scan(phi, "upper", tensor, q.meet_table, q.meet_table)


def brute_irreducible(phi):
    q = phi.base.quantale
    return inhabited(phi) and pair_scan(phi, "lower", sub, q.join_table, q.join_table)


def meet_shortcut(phi):
    """Flatness when the tensor is the meet: phi(x) ^ phi(y) <= join over
    z of phi(z) ^ A(x,z) ^ A(y,z) for every x, y."""
    A, q = phi.base, phi.base.quantale
    mt, v = q.meet_table, phi.values
    return inhabited(phi) and all(
        q.leq[mt[v[x]][v[y]]][q.join_all(mt[v[z]][mt[A.hom[x][z]][A.hom[y][z]]]
                                         for z in range(A.n))]
        for x in range(A.n) for y in range(A.n))


def fold_oracle(phi, kind):
    """The threshold test over every set: the degree of every set, one
    test per value u, and on failure the left-to-right fold of the sets
    that pass u up to its first break (acc, psi, d(acc . psi),
    d(acc) . d(psi))."""
    q = phi.base.quantale
    sets = _monotone_value_tuples(phi.base, kind, DEFAULT_BUDGET)
    if kind == "lower":
        degree, fold, fold_all, within = sub, q.join_table, q.join_all, q.leq
    else:
        degree, fold, fold_all = tensor, q.meet_table, q.meet_all
        within = tuple(zip(*q.leq))

    def d(vec):
        return degree(q, phi.values, vec)

    degs = [d(v) for v in sets]
    for u in range(q.n):
        inside = [v for v, w in zip(sets, degs) if within[w][u]]
        if not inside or within[d(tuple(map(fold_all, zip(*inside))))][u]:
            continue
        acc = inside[0]
        for v in inside[1:]:
            out = pointwise(fold, acc, v)
            if not within[d(out)][u]:
                return acc, v, d(out), fold[d(acc)][d(v)]
            acc = out
    return None


def generator_oracle(phi, kind):
    """The generator-row fold, for a distributive lattice.  Irreducible
    (kind lower): for each meet-irreducible u in index order, the rows
    A(y,x) -> w of the cells (y, w), in point and then value order, with
    w maximal in {b : phi(y) -> b <= u}, folded left to right by join up
    to the first that takes the fold's inclusion degree from phi above
    u: (acc, row, d(acc v row), d(acc) v d(row)).  Flat (kind upper) is
    the dual: join-irreducible j, w minimal in {b : j <= phi(y) & b},
    rows w & A(y,x), meets, and the tensor degree falling below j."""
    A, q = phi.base, phi.base.quantale
    vals, values = phi.values, range(q.n)
    if kind == "lower":
        degree, fold, gather, within = sub, q.join_table, q.meet_all, q.leq

        def row(y, w):
            return tuple(q.res_table[A.hom[y][x]][w] for x in range(A.n))
    else:
        degree, fold, gather, within = tensor, q.meet_table, q.join_all, tuple(zip(*q.leq))

        def row(y, w):
            return tuple(q.tensor_table[w][A.hom[y][x]] for x in range(A.n))

    def d(vec):
        return degree(q, vals, vec)

    for u in values:
        # u is meet- (join-) irreducible: not the meet (join) of the
        # elements strictly above (below) it, so never the top (bottom)
        if gather(v for v in values if within[u][v] and v != u) == u:
            continue
        cells = []
        for y, a in enumerate(vals):
            # degree over one point: phi(y) -> b (phi(y) & b)
            fit = [b for b in values if within[degree(q, (a,), (b,))][u]]
            cells += [(y, w) for w in fit if not any(c != w and within[w][c] for c in fit)]
        rows = [row(y, w) for y, w in cells]
        acc = rows[0] if rows else None
        for r in rows[1:]:
            out = pointwise(fold, acc, r)
            if not within[d(out)][u]:
                return acc, r, d(out), fold[d(acc)][d(r)]
            acc = out
    return None


# the witness keys of the irreducible (kind lower) and flat (kind upper) deciders
WITNESS_KEYS = {"lower": ("phi1", "phi2", "sub_of_join", "join_of_subs"),
                "upper": ("psi1", "psi2", "tensor_with_meet", "meet_of_tensors")}


def oracle_witness(oracle, phi, kind):
    """The oracle's break for phi in the form of the decider's witness,
    or None when there is none."""
    hit = oracle(phi, kind)
    if hit is None:
        return None
    A, lab = phi.base, phi.base.quantale.elements.__getitem__
    v1, v2, lhs, rhs = hit
    return dict(zip(WITNESS_KEYS[kind], (FuzzySet(A, v1).as_dict(), FuzzySet(A, v2).as_dict(),
                                         lab(lhs), lab(rhs))))


def fc_oracle(phi):
    """The pointwise loop that _forward_cauchy's per-point masks over the
    points at the unit replace: the first pair x, y (x outer) with no z
    at the unit such that phi(x) <= A(x,z) and phi(y) <= A(y,z)."""
    A, q = phi.base, phi.base.quantale
    vals = phi.values
    tops = [z for z in range(A.n) if vals[z] == q.unit]
    for x in range(A.n):
        for y in range(A.n):
            if not any(q.leq[vals[x]][A.hom[x][z]] and q.leq[vals[y]][A.hom[y][z]]
                       for z in tops):
                return False, {"pair": (A.elements[x], A.elements[y])}
    return True, None


def replay_flat(phi, w):
    A, q = phi.base, phi.base.quantale
    v1, v2 = fuzzy_set(A, w["psi1"]).values, fuzzy_set(A, w["psi2"]).values
    assert monotone(A, v1, "upper") and monotone(A, v2, "upper")
    lhs = tensor(q, phi.values, pointwise(q.meet_table, v1, v2))
    rhs = q.meet_table[tensor(q, phi.values, v1)][tensor(q, phi.values, v2)]
    assert (w["tensor_with_meet"], w["meet_of_tensors"]) == (q.elements[lhs],
                                                             q.elements[rhs])
    assert q.leq[lhs][rhs] and lhs != rhs


def replay_irreducible(phi, w):
    A, q = phi.base, phi.base.quantale
    v1, v2 = fuzzy_set(A, w["phi1"]).values, fuzzy_set(A, w["phi2"]).values
    assert monotone(A, v1, "lower") and monotone(A, v2, "lower")
    lhs = sub(q, phi.values, pointwise(q.join_table, v1, v2))
    rhs = q.join_table[sub(q, phi.values, v1)][sub(q, phi.values, v2)]
    assert (w["sub_of_join"], w["join_of_subs"]) == (q.elements[lhs],
                                                     q.elements[rhs])
    assert q.leq[rhs][lhs] and lhs != rhs


def assert_flag_only_enumeration_matches_classify(A):
    """Flat and irreducible enumeration decide flags without witnesses;
    they keep exactly the lower sets whose report sets the flag, in
    enumeration order."""
    reports = [(phi, classify_ideal(phi)) for phi in enumerate_ideals(A, "lower")]
    for cls, field in (("flat", "flat"), ("irr", "irreducible")):
        assert enumerate_ideals(A, cls) == tuple(
            phi for phi, rep in reports if getattr(rep, field)), (A.catalog, cls)


def assert_matches_oracles(A):
    frame = A.quantale.is_frame
    break_oracle = (generator_oracle if A.quantale.prime_tables.distributive
                    else fold_oracle)
    for phi in enumerate_ideals(A, "lower"):
        rep = classify_ideal(phi)
        flat, wf = rep.flat, rep.witnesses.get("flat")
        irr, wi = rep.irreducible, rep.witnesses.get("irreducible")
        assert flat == brute_flat(phi), (A.catalog, phi.values)
        assert irr == brute_irreducible(phi), (A.catalog, phi.values)
        if frame:
            assert flat == meet_shortcut(phi), (A.catalog, phi.values)
        if not flat and inhabited(phi):
            replay_flat(phi, wf)
        if not irr and inhabited(phi):
            replay_irreducible(phi, wi)
        if inhabited(phi):
            expected = [oracle_witness(break_oracle, phi, kind) for kind in ("lower", "upper")]
            assert [wi, wf] == expected, (A.catalog, phi.values)
        fc = fc_oracle(phi)
        assert _forward_cauchy(phi) == fc, (A.catalog, phi.values)
        if inhabited(phi):
            assert (rep.forward_cauchy, rep.witnesses.get("forward_cauchy")) == fc, \
                (A.catalog, phi.values)
    assert_flag_only_enumeration_matches_classify(A)
    assert_inhabited_matches_the_join(A)


def assert_inhabited_matches_the_join(A):
    """_inhabited, whichever test the quantale picks, says whether the
    values join to the unit, on every lower and upper set."""
    q = A.quantale
    for kind in ("lower", "upper"):
        for vals in _monotone_value_tuples(A, kind, DEFAULT_BUDGET):
            assert _inhabited(A, vals) == (q.join_all(vals) == q.unit), (A.catalog, vals)


def test_inhabited_reads_the_unit_only_where_it_is_join_irreducible():
    b4 = boolean4()
    assert [q.unit_join_irreducible for q in (b4, m3_with_top(), lukasiewicz_chain(2),
                                              godel_chain(4))] == [False, True, True, True]
    # on boolean4 a set can join to the unit without taking it
    a, b = (b4.elements[i] for i in range(b4.n) if i not in (b4.bottom, b4.unit))
    A = standard_qorder(b4, "discrete", n=2)
    assert _inhabited(A, fuzzy_set(A, [a, b]).values)


@pytest.mark.parametrize("q", [boolean4(), lukasiewicz_chain(3), godel_chain(4)],
                         ids=["boolean4", "L3", "G4"])
def test_every_two_point_order(q):
    for A in two_point_orders(q):
        assert_matches_oracles(A)


@pytest.mark.parametrize("k", range(2, 7))
def test_named_orders_over_lukasiewicz(k):
    q = lukasiewicz_chain(k)
    for name in ("dL", "dR"):
        assert_matches_oracles(standard_qorder(q, name))
    for n in (1, 2, 3):
        assert_matches_oracles(standard_qorder(q, "discrete", n=n))


def test_threshold_equals_both_oracles_on_dL_over_godel4():
    assert_matches_oracles(standard_qorder(godel_chain(4), "dL"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RANDOM_BASES), st.integers(3, 4), st.integers(0, 2 ** 32))
def test_random_orders(q, n, seed):
    assert_matches_oracles(random_qorder(q, n, random.Random(seed)))


@pytest.mark.parametrize("A", [
    *(standard_qorder(lukasiewicz_chain(k), name) for k in range(7, 11) for name in ("dL", "dR")),
    standard_qorder(lukasiewicz_chain(3), "discrete", n=4),
    *(standard_qorder(boolean4(), "discrete", n=n) for n in range(1, 5))],
    ids=[*(f"{name}/L{k}" for k in range(7, 11) for name in ("dL", "dR")),
         "discrete-4/L3", *(f"discrete-{n}/boolean4" for n in range(1, 5))])
def test_flag_only_enumeration_beyond_the_oracles(A):
    """The bases too large for the pair oracles; assert_matches_oracles
    covers the rest."""
    assert_flag_only_enumeration_matches_classify(A)


@pytest.mark.parametrize("k", range(7, 13))
def test_generator_flags_beyond_the_oracles(k):
    """On a chain the flat and the irreducible ideals of dL and dR are
    the principal ones (Cor. 3.12)."""
    for name in ("dL", "dR"):
        A = standard_qorder(lukasiewicz_chain(k), name)
        principal = {yoneda(A, a).values for a in A.elements}
        for cls in ("irr", "flat"):
            assert {p.values for p in enumerate_ideals(A, cls)} == principal, (name, cls)


def two_point_orders(q):
    one = q.elements[q.unit]
    for ab, ba in itertools.product(q.elements, repeat=2):
        yield build_qorder(q, ("a", "b"), [[one, ab], [ba, one]])


CENSUS_QUANTALES = {"boolean4": boolean4(), "G5": godel_chain(5),
                    "NM4": nilpotent_minimum_chain(4), "L4": lukasiewicz_chain(4)}


@pytest.mark.parametrize("q", CENSUS_QUANTALES.values(), ids=list(CENSUS_QUANTALES))
def test_random_five_point_orders_over_the_census_quantales(q):
    """Seeded 5-point orders as the census draws them; bases with more
    than 64 lower or upper sets are passed over, which bounds the cost
    of the pair oracles."""
    rng, kept = random.Random(20260819), 0
    while kept < 4:
        A = random_qorder(q, 5, rng)
        if all(len(_monotone_value_tuples(A, kind, DEFAULT_BUDGET)) <= 64
               for kind in ("lower", "upper")):
            assert_matches_oracles(A)
            kept += 1


def census_bases(q, count=25, seed=2027):
    """count seeded 5-point orders over q, drawn as the census draws
    them: a base is kept when it has 12 to 64 lower sets and at most 64
    upper sets."""
    rng, bases = random.Random(seed), []
    while len(bases) < count:
        A = random_qorder(q, 5, rng)
        if (12 <= len(_monotone_value_tuples(A, "lower", DEFAULT_BUDGET)) <= 64
                and len(_monotone_value_tuples(A, "upper", DEFAULT_BUDGET)) <= 64):
            bases.append(A)
    return bases


def expected_report(phi):
    """classify_ideal's flags and witnesses as the oracles give them: the
    generator-row fold's breaks and fc_oracle's pair on an inhabited
    lower set, else the one reason under every key."""
    q = phi.base.quantale
    if not inhabited(phi):
        reason = {"reason": "not inhabited",
                  "join_of_values": q.elements[q.join_all(phi.values)]}
        return (False, False, False,
                dict.fromkeys(("flat", "irreducible", "forward_cauchy"), reason))
    w_flat = oracle_witness(generator_oracle, phi, "upper")
    w_irr = oracle_witness(generator_oracle, phi, "lower")
    fc, w_fc = fc_oracle(phi)
    witnesses = {key: w for key, w in (("flat", w_flat), ("irreducible", w_irr),
                                       ("forward_cauchy", w_fc)) if w is not None}
    return w_flat is None, w_irr is None, fc, witnesses


def census_mismatch(bases):
    """The first lower set whose classify_ideal report differs from
    expected_report, with both, or None.  Compared by repr, so the key
    order of every witness dict counts too."""
    for A in bases:
        for phi in enumerate_ideals(A, "lower"):
            rep = classify_ideal(phi)
            got = (rep.flat, rep.irreducible, rep.forward_cauchy, rep.witnesses)
            want = expected_report(phi)
            if repr(got) != repr(want):
                return A.catalog, phi.values, got, want
    return None


@pytest.mark.parametrize("name", CENSUS_QUANTALES)
def test_census_witnesses_equal_the_generator_oracle(name):
    bases = census_bases(CENSUS_QUANTALES[name])
    assert census_mismatch(bases) is None
    # each decider breaks somewhere past r_1, where acc folds two rows or more
    for kind in ("lower", "upper"):
        assert any(hit[2] >= 2 for A in bases for phi in enumerate_ideals(A, "lower")
                   if inhabited(phi) and (hit := ideals._first_break(A, kind, phi.values)))


def fold_through_the_break(row_break):
    """r_i folded into acc as well: the break row named twice."""
    def mutated(A, kind, vals, hit):
        k, cells, i = hit
        return row_break(A, kind, vals, (k, cells[:i + 1] + cells[i:], i + 1))
    return mutated


def swap_acc_and_psi(row_break):
    def mutated(A, kind, vals, hit):
        acc, psi, lhs, rhs = row_break(A, kind, vals, hit)
        return psi, acc, lhs, rhs
    return mutated


def degrees_through_the_other_table(row_break):
    """The break's sets as found, both sides read off the other decider's
    table: the tensor for the irreducible one, the residuum for flat."""
    def mutated(A, kind, vals, hit):
        acc, psi, _, _ = row_break(A, kind, vals, hit)
        q = A.quantale
        other = q.prime_tables.upper if kind == "lower" else q.prime_tables.lower
        fold, gather = ((q.join_table, q.meet_all) if kind == "lower"
                        else (q.meet_table, q.join_all))

        def d(vec):
            return gather(other.table[a][b] for a, b in zip(vals, vec))
        return acc, psi, d(pointwise(fold, acc, psi)), fold[d(acc)][d(psi)]
    return mutated


@pytest.mark.parametrize("mutation", [fold_through_the_break, swap_acc_and_psi,
                                      degrees_through_the_other_table],
                         ids=["fold-includes-the-break-row", "acc-psi-swapped",
                              "degrees-through-the-other-table"])
def test_a_mutated_row_break_fails_the_census_differential(monkeypatch, mutation):
    monkeypatch.setattr(ideals, "_row_break", mutation(ideals._row_break))
    assert census_mismatch(census_bases(CENSUS_QUANTALES["boolean4"])) is not None


def die_positions(A, kind, cells):
    """die(c) of each generator cell c = (y, w), from the row formulas:
    the position of the first cell (x, v) whose row leaves c, that is
    A(x,y) -> v is not <= w (kind lower) or v & A(x,y) is not >= w
    (kind upper), or None when no row does."""
    q = A.quantale
    if kind == "lower":
        def leaves(x, v, y, w):
            return not q.leq[q.res_table[A.hom[x][y]][v]][w]
    else:
        def leaves(x, v, y, w):
            return not q.leq[w][q.tensor_table[v][A.hom[x][y]]]
    return [next((j for j, (x, v) in enumerate(cells) if leaves(x, v, y, w)), None)
            for y, w in cells]


def boolean4_break():
    """A 4-point order over boolean4 and phi = (a, a, a, 1) on it.  The
    unit at x3 has a generator at each threshold, a at a and b at b.
    Each decider's failing threshold has one cell per point, and its
    fold breaks at the third row: neither r_1 nor the last."""
    q = boolean4()
    hom = [["1", "1", "b", "0"], ["b", "1", "b", "0"], ["b", "b", "1", "0"], ["1"] * 4]
    A = build_qorder(q, ("x0", "x1", "x2", "x3"), hom)
    return A, fuzzy_set(A, ["a", "a", "a", "1"])


def test_a_boolean4_break_inside_the_rows():
    A, phi = boolean4_break()
    a, b = (phi.base.quantale.index(e) for e in "ab")
    # irreducible passes threshold a and fails at b; flat fails at a
    scans = {kind: ideals._first_break(A, kind, phi.values) for kind in ("lower", "upper")}
    assert scans == {"lower": (1, [(y, b) for y in range(4)], 2),
                     "upper": (0, [(y, a) for y in range(4)], 2)}
    for kind, (_, cells, i) in scans.items():
        dies = die_positions(A, kind, cells)
        assert dies == [1, 2, 0, 0] and i == max(dies)
    rep = classify_ideal(phi)
    assert rep.witnesses["irreducible"] == {
        "phi1": {"x0": "1", "x1": "b", "x2": "1", "x3": "1"},
        "phi2": {"x0": "1", "x1": "1", "x2": "b", "x3": "1"},
        "sub_of_join": "1", "join_of_subs": "b",
    } == oracle_witness(generator_oracle, phi, "lower")
    assert rep.witnesses["flat"] == {
        "psi1": {"x0": "0", "x1": "a", "x2": "0", "x3": "0"},
        "psi2": {"x0": "0", "x1": "0", "x2": "a", "x3": "0"},
        "tensor_with_meet": "0", "meet_of_tensors": "a",
    } == oracle_witness(generator_oracle, phi, "upper")
    replay_irreducible(phi, rep.witnesses["irreducible"])
    replay_flat(phi, rep.witnesses["flat"])


@pytest.mark.parametrize("pick", [min, lambda dies: len(dies) - 1],
                         ids=["smallest-die", "last-cell"])
def test_a_misplaced_break_fails_the_generator_oracle(monkeypatch, pick):
    """The break is at the largest die(c): a scan that names the
    smallest one, or the last cell, gives other witnesses than the
    generator-row fold."""
    scan = ideals._first_break

    def mutated(A, kind, vals):
        hit = scan(A, kind, vals)
        if hit is None:
            return None
        k, cells, _ = hit
        return k, cells, pick(die_positions(A, kind, cells))
    monkeypatch.setattr(ideals, "_first_break", mutated)
    A, phi = boolean4_break()
    rep = classify_ideal(phi)
    assert rep.witnesses.get("irreducible") != oracle_witness(generator_oracle, phi, "lower")
    assert rep.witnesses.get("flat") != oracle_witness(generator_oracle, phi, "upper")


def test_every_base_of_m3_with_a_top():
    """A quantale whose lattice is not distributive, so every flat and
    irreducible decision folds over all the sets: its 36 two-point
    orders, discrete-2 and dL."""
    q = m3_with_top()
    assert not q.prime_tables.distributive
    bases = [*two_point_orders(q), standard_qorder(q, "discrete", n=2),
             standard_qorder(q, "dL")]
    for A in bases:
        assert_matches_oracles(A)
    reports = [classify_ideal(phi) for A in bases for phi in enumerate_ideals(A, "lower")]
    assert (len(reports), sum(r.inhabited and not r.flat for r in reports),
            sum(r.inhabited and not r.irreducible for r in reports)) == (1192, 129, 129)


def decisions(A):
    """Flat and irreducible enumeration, and every lower set's flags
    from classify_ideal."""
    enumerated = [[p.values for p in enumerate_ideals(A, cls)] for cls in ("flat", "irr")]
    flags = [classify_ideal(phi).flags() for phi in enumerate_ideals(A, "lower")]
    return enumerated, flags


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(RANDOM_BASES), st.integers(3, 4), st.integers(0, 2 ** 32))
def test_the_fallback_decides_as_the_generators_on_random_orders(q, n, seed):
    assert_fallback_decides_as_the_generators([random_qorder(q, n, random.Random(seed))])


def test_the_fallback_decides_as_the_generators_on_two_points():
    assert_fallback_decides_as_the_generators(
        A for q in (boolean4(), lukasiewicz_chain(3), godel_chain(4))
        for A in two_point_orders(q))


def assert_fallback_decides_as_the_generators(bases):
    """With the distributive flag patched off every flag comes from the
    fold over all the sets (the route of a lattice that is not
    distributive); flags and enumerations stay the same."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fuzzy, "_MEMO", {})
        for A in bases:
            generated = decisions(A)
            with pytest.MonkeyPatch.context() as off:
                off.setattr(FiniteQuantale, "prime_tables", property(
                    lambda q: _prime_tables(q)._replace(distributive=False)))
                assert decisions(A) == generated, A.catalog


def test_a_principal_ideal_of_lukasiewicz20_needs_no_set_universe(monkeypatch):
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A = standard_qorder(lukasiewicz_chain(20), "dL")
    rep = classify_ideal(yoneda(A, A.elements[7]))
    assert rep.flags() == (True, True, True, True)
    assert fuzzy._MEMO == {}


def test_a_non_ideal_of_lukasiewicz20_needs_no_set_universe(monkeypatch):
    """phi(x) = (x -> 2/19) v 10/19 is lower and inhabited but not
    principal, so on a chain it is neither flat nor irreducible.  Its
    witnesses come from generator rows and replay, and no decider call
    keeps anything in the memo."""
    monkeypatch.setattr(fuzzy, "_MEMO", {})
    A = standard_qorder(lukasiewicz_chain(20), "dL")
    phi = fuzzy_set(A, [f"{max(min(19, 21 - k), 10)}/19" for k in range(20)])
    rep = classify_ideal(phi)
    assert rep.flags() == (True, False, False, False)
    replay_flat(phi, rep.witnesses["flat"])
    replay_irreducible(phi, rep.witnesses["irreducible"])
    assert rep.witnesses["irreducible"] == oracle_witness(generator_oracle, phi, "lower")
    assert rep.witnesses["flat"] == oracle_witness(generator_oracle, phi, "upper")
    assert fuzzy._MEMO == {}


def test_lukasiewicz10_classes_are_the_principal_ideals():
    A = standard_qorder(lukasiewicz_chain(10), "dL")
    principal = {yoneda(A, a).values for a in A.elements}
    for cls in ("irr", "flat"):
        found = enumerate_ideals(A, cls, budget=8_000_000)
        assert {p.values for p in found} == principal and len(found) == 10


def test_precondition_is_one_reason_under_every_key():
    A = standard_qorder(lukasiewicz_chain(3), "dL")
    rep = classify_ideal(fuzzy_set(A, (0, 0, 1)))
    assert rep.flags() == (True, False, False, False)
    reason = rep.witnesses["flat"]
    assert reason["reason"] == "not a lower set"
    assert rep.witnesses == dict.fromkeys(("flat", "irreducible", "forward_cauchy"),
                                          reason)
