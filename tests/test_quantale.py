"""Quantale construction, residuation laws, and the interval backends."""

import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from qideal.errors import (
    ChainNotClosed,
    GridTooCoarse,
    NotAssociative,
    NotDistributive,
    NotIntegral,
    ShapeMismatch,
)
from qideal.interval import check_adjunction_sampled, interval_quantale
from qideal.io import load_quantale
from qideal.quantale import (
    _CHAIN_TNORMS,
    _closed_forms,
    boolean4,
    build_finite_quantale,
    chain_quantale,
    godel_chain,
    label_index,
    label_map,
    lukasiewicz_chain,
    negation_law_violations,
    nilpotent_minimum_chain,
    quantale_properties,
    residuation_identity_violations,
)

ALL_CHAINS = [f(n) for f in (lukasiewicz_chain, godel_chain,
                             nilpotent_minimum_chain) for n in range(2, 7)]

# M3 with a top adjoined, 0 < l1, l2, l3 < m < 1, whose tensor is 0 below
# the top: the ideals of F2[x,y]/(x,y)^2 under their product.  Its
# lattice is not distributive: l1 ^ (l2 v l3) = l1, (l1 ^ l2) v (l1 ^ l3) = 0.
_M3_RANKS = {"0": 0, "l1": 1, "l2": 1, "l3": 1, "m": 2, "1": 3}
M3_WITH_TOP = {
    "kind": "table",
    "elements": list(_M3_RANKS),
    "leq": [[a == b or _M3_RANKS[a] < _M3_RANKS[b] for b in _M3_RANKS] for a in _M3_RANKS],
    "tensor": [[b if a == "1" else a if b == "1" else "0" for b in _M3_RANKS]
               for a in _M3_RANKS],
    "unit": "1"}


def m3_with_top():
    return load_quantale(M3_WITH_TOP)


def test_boolean4_structure():
    q = boolean4()
    assert q.n == 4
    assert q.is_frame and not q.is_linear
    a, b = q.index("a"), q.index("b")
    assert q.tensor(a, b) == q.bottom
    assert q.neg(a) == b and q.neg(b) == a
    props = quantale_properties(q)
    assert props.has_double_negation and props.is_prelinear


def test_chain_tensors_agree_with_definitions():
    q = lukasiewicz_chain(5)
    half, quarter = q.index("1/2"), q.index("1/4")
    assert q.elements[q.tensor(half, quarter)] == Fraction(0)
    assert q.elements[q.residuate(half, quarter)] == Fraction(3, 4)
    g = godel_chain(4)
    lo, hi = g.index("1/3"), g.index("2/3")
    assert g.tensor(lo, hi) == lo
    assert g.residuate(hi, lo) == lo and g.residuate(lo, hi) == g.unit
    nm = nilpotent_minimum_chain(5)
    assert nm.elements[nm.tensor(nm.index("1/4"), nm.index("1/2"))] == 0
    assert nm.elements[nm.tensor(nm.index("3/4"), nm.index("1/2"))] == Fraction(1, 2)


@pytest.mark.parametrize("tnorm,n", [*((t, n) for t in ("lukasiewicz", "godel",
                                                         "nilpotent_minimum")
                                        for n in range(2, 13)),
                                      ("product", 2)])
def test_the_closed_forms_are_the_derived_tables(tnorm, n):
    """On the chains they close, the exact closed forms give the tensor
    table and the residuum build_finite_quantale derives as a join."""
    tensor, residuate = _closed_forms(Fraction(0), Fraction(1))[_CHAIN_TNORMS[tnorm]]
    q = chain_quantale(tnorm, n)
    e = q.elements
    for i, a in enumerate(e):
        for j, b in enumerate(e):
            assert e[q.tensor_table[i][j]] == tensor(a, b), (a, b)
            assert e[q.res_table[i][j]] == residuate(a, b), (a, b)


def test_product_leaves_uniform_grids():
    with pytest.raises(ChainNotClosed):
        chain_quantale("product", n=3)


def test_chain_carrier_must_span_unit_interval():
    with pytest.raises(ShapeMismatch):
        chain_quantale("godel", carrier=["0", "1/2"])


@pytest.mark.parametrize("q", ALL_CHAINS, ids=lambda q: q.catalog[0] + str(q.n))
def test_residuation_identities_on_chains(q):
    assert residuation_identity_violations(q) == []


def test_residuation_identities_on_boolean4():
    assert residuation_identity_violations(boolean4()) == []


def test_negation_laws_on_double_negation_instances():
    dn = [q for q in ALL_CHAINS + [boolean4()]
          if quantale_properties(q).has_double_negation]
    assert dn, "battery lost its double-negation instances"
    for q in dn:
        assert negation_law_violations(q) == []


def test_adjunction_exhaustive_on_small_chain():
    q = lukasiewicz_chain(4)
    for p in range(q.n):
        for r in range(q.n):
            for s in range(q.n):
                assert q.leq[q.tensor(p, r)][s] == q.leq[r][q.residuate(p, s)]


@given(st.sets(st.fractions(min_value=0, max_value=1, max_denominator=12),
               min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_godel_chain_on_arbitrary_carriers(extra):
    carrier = sorted(extra | {Fraction(0), Fraction(1)})
    q = chain_quantale("godel", carrier=carrier)
    assert residuation_identity_violations(q) == []


def test_label_index_accepts_equivalent_spellings():
    q = lukasiewicz_chain(3)
    half = q.index(Fraction(1, 2))
    assert q.index("1/2") == half
    assert q.index(0.5) == half
    assert q.index(1) == q.unit
    with pytest.raises(KeyError):
        q.index("2/3")
    # a float is read as written, not as its binary value
    l11 = lukasiewicz_chain(11)
    assert l11.index(0.1) == l11.index("1/10") == 1
    assert l11.index(0.7) == l11.index(Fraction(7, 10))
    for missing in (0.15, float("nan"), float("inf")):
        with pytest.raises(KeyError):
            l11.index(missing)
    b = boolean4()
    assert b.index("1") == b.top
    assert b.index(Fraction(1)) == b.top  # string-label fallback


def test_a_bool_resolves_only_to_a_bool_label():
    """True == 1 == Fraction(1) with one hash, so a bool would otherwise
    name the unit of a Fraction-labelled carrier."""
    q = lukasiewicz_chain(3)
    for flag in (True, False):
        with pytest.raises(KeyError, match=f"^'label {flag} is not in the carrier'$"):
            q.index(flag)
    assert q.index(1) == q.unit and q.index(0) == q.bottom
    # a carrier labelled by bools still resolves them, and only them
    crisp = build_finite_quantale((False, True), ((1, 1), (0, 1)),
                                  ((False, False), (False, True)), True)
    assert (crisp.index(False), crisp.index(True)) == (crisp.bottom, crisp.unit) == (0, 1)
    assert label_index(label_map((False, True)), True) == 1
    with pytest.raises(KeyError):
        label_index(label_map((0, 1)), True)


def test_no_number_names_a_bool_label():
    """Keyed apart, a bool label is named by a bool alone: no number and
    no numeral, in any spelling, resolves to it."""
    crisp = build_finite_quantale((False, True), ((1, 1), (0, 1)),
                                  ((False, False), (False, True)), True)
    for label in (1, "1", 1.0, Fraction(1), 0, "0", 0.0, Fraction(0), "1/1"):
        with pytest.raises(KeyError, match="is not in the carrier"):
            crisp.index(label)


def test_two_spellings_of_one_label_are_refused():
    """"1" and Fraction(1) name one element, so a carrier cannot hold both."""
    chain = ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    meet = (("0", "0", "0"), ("0", "1", "1"), ("0", "1", Fraction(1)))
    with pytest.raises(ShapeMismatch, match="duplicate element label"):
        build_finite_quantale(("0", "1", Fraction(1)), chain, meet, Fraction(1))
    with pytest.raises(ShapeMismatch, match="duplicate element label"):
        label_map(("0.5", "1/2"))


def test_build_rejects_broken_tables():
    e = ("0", "1")
    leq = ((1, 1), (0, 1))
    with pytest.raises(NotIntegral):
        # unit must be the top element
        build_finite_quantale(e, leq, (("0", "0"), ("0", "0")), "0")
    e3 = ("0", "m", "1")
    leq3 = ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    tensor = [["0", "0", "0"], ["0", "1", "m"], ["0", "m", "1"]]
    with pytest.raises((NotAssociative, NotDistributive)):
        build_finite_quantale(e3, leq3, tensor, "1")


def test_interval_closed_forms():
    lq = interval_quantale("lukasiewicz")
    assert lq.tensor(0.7, 0.5) == pytest.approx(0.2)
    assert lq.residuate(0.7, 0.3) == pytest.approx(0.6)
    assert lq.neg(0.3) == pytest.approx(0.7)
    pq = interval_quantale("product")
    assert pq.residuate(0.5, 0.25) == pytest.approx(0.5)
    assert pq.residuate(0.0, 0.4) == 1.0
    gq = interval_quantale("min")
    assert gq.residuate(0.7, 0.3) == pytest.approx(0.3)
    assert gq.residuate(0.3, 0.7) == 1.0
    nq = interval_quantale("nilpotent_minimum")
    assert nq.tensor(0.25, 0.5) == 0.0
    assert nq.tensor(0.75, 0.5) == 0.5


def test_ordinal_sum_rescales_inside_pieces():
    q = interval_quantale("ordinal_sum",
                          pieces=((0.0, 0.5, "lukasiewicz"),
                                  (0.5, 1.0, "product")))
    assert q.tensor(0.25, 0.25) == pytest.approx(0.0)
    assert q.tensor(0.75, 0.75) == pytest.approx(0.625)
    # outside every piece the tensor degrades to min
    assert q.tensor(0.25, 0.75) == pytest.approx(0.25)
    ok, witness = check_adjunction_sampled(q)
    assert ok, witness


@pytest.mark.parametrize("tnorm", ["min", "product", "lukasiewicz",
                                   "nilpotent_minimum"])
def test_interval_adjunction_sampled(tnorm):
    ok, witness = check_adjunction_sampled(interval_quantale(tnorm))
    assert ok, witness


# (is_divisible, has_double_negation, is_archimedean, idempotents)
@pytest.mark.parametrize("tnorm,pieces,flags", [
    ("min", None, (True, False, False, None)),
    ("product", None, (True, False, True, (0.0, 1.0))),
    ("lukasiewicz", None, (True, True, True, (0.0, 1.0))),
    ("nilpotent_minimum", None, (False, True, False, None)),
    ("ordinal_sum", None, (True, False, False, None)),
    ("ordinal_sum", ((0, 1, "lukasiewicz"),), (True, True, True, (0.0, 1.0))),
    ("ordinal_sum", ((0, 1, "product"),), (True, False, True, (0.0, 1.0))),
    ("ordinal_sum", ((0.25, 0.5, "product"),), (True, False, False, None)),
    ("ordinal_sum", ((0, 0.25, "product"), (0.5, 1, "product")), (True, False, False, None)),
    ("ordinal_sum", ((0, 0.5, "lukasiewicz"), (0.5, 1, "product")),
     (True, False, False, (0.0, 0.5, 1.0)))])
def test_interval_properties_are_catalog_facts(tnorm, pieces, flags):
    props = quantale_properties(interval_quantale(tnorm, pieces=pieces))
    assert (props.is_divisible, props.has_double_negation, props.is_archimedean,
            props.idempotents) == flags
    assert props.is_integral and props.is_commutative and props.is_prelinear
    assert props.is_meet_continuous and props.is_dually_meet_continuous


@pytest.mark.parametrize("grid", [1, 0, -3])
def test_adjunction_sample_needs_two_grid_points(grid):
    with pytest.raises(GridTooCoarse, match=f"grid has {grid} points; at least 2 required"):
        check_adjunction_sampled(interval_quantale("lukasiewicz"), grid=grid)
    assert check_adjunction_sampled(interval_quantale("lukasiewicz"), grid=2) == (True, None)


def labelled_primes(q):
    """prime_tables with every element index replaced by its label."""
    t = q.prime_tables
    lab = q.elements.__getitem__

    def side(s):
        return {"thresholds": [str(lab(u)) for u in s.thresholds],
                "generators": [[[str(lab(b)) for b in gens] for gens in row]
                               for row in s.generators]}
    return {"distributive": t.distributive, "lower": side(t.lower), "upper": side(t.upper)}


def test_prime_tables_of_boolean4():
    # a -> c = (not a) v c, and j <= a ^ c
    assert labelled_primes(boolean4()) == {
        "distributive": True,
        "lower": {"thresholds": ["a", "b"],
                  "generators": [[[], []], [[], ["b"]], [["a"], []], [["a"], ["b"]]]},
        "upper": {"thresholds": ["a", "b"],
                  "generators": [[[], []], [["a"], []], [[], ["b"]], [["a"], ["b"]]]}}


def test_prime_tables_of_lukasiewicz4():
    # a -> c <= u iff c <= u + a - 1, and j <= a & c iff c >= j - a + 1
    assert labelled_primes(lukasiewicz_chain(4)) == {
        "distributive": True,
        "lower": {"thresholds": ["0", "1/3", "2/3"],
                  "generators": [[[], [], []], [[], [], ["0"]], [[], ["0"], ["1/3"]],
                                 [["0"], ["1/3"], ["2/3"]]]},
        "upper": {"thresholds": ["1/3", "2/3", "1"],
                  "generators": [[[], [], []], [["1"], [], []], [["2/3"], ["1"], []],
                                 [["1/3"], ["2/3"], ["1"]]]}}


def test_prime_tables_of_l3_times_l2():
    from test_enumeration import l3_times_l2

    # the product of the chains 0 < 1 < 2 and 0 < 1, labelled by the pair
    assert labelled_primes(l3_times_l2()) == {
        "distributive": True,
        "lower": {"thresholds": ["01", "11", "20"],
                  "generators": [[[], [], []], [[], [], ["20"]], [[], ["01"], []],
                                 [[], ["01"], ["20"]], [["01"], ["11"], []],
                                 [["01"], ["11"], ["20"]]]},
        "upper": {"thresholds": ["01", "10", "20"],
                  "generators": [[[], [], []], [["01"], [], []], [[], ["20"], []],
                                 [["01"], ["20"], []], [[], ["10"], ["20"]],
                                 [["01"], ["10"], ["20"]]]}}


def test_prime_tables_of_m3_with_a_top():
    # a -> c is 1 when a <= c, else m (a below the top); j <= a & c needs c = 1
    assert labelled_primes(m3_with_top()) == {
        "distributive": False,
        "lower": {"thresholds": ["l1", "l2", "l3", "m"],
                  "generators": [[[], [], [], []], [[], [], [], ["l2", "l3"]],
                                 [[], [], [], ["l1", "l3"]], [[], [], [], ["l1", "l2"]],
                                 [[], [], [], ["l1", "l2", "l3"]],
                                 [["l1"], ["l2"], ["l3"], ["m"]]]},
        "upper": {"thresholds": ["l1", "l2", "l3", "1"],
                  "generators": [[[], [], [], []], [["1"], [], [], []],
                                 [[], ["1"], [], []], [[], [], ["1"], []],
                                 [["1"], ["1"], ["1"], []],
                                 [["l1"], ["l2"], ["l3"], ["1"]]]}}


@pytest.mark.parametrize("q", [*ALL_CHAINS, boolean4()],
                         ids=[*(f"{q.catalog[0]}-{q.n}" for q in ALL_CHAINS), "boolean4"])
def test_prime_tables_from_the_definitions(q):
    """Irreducible thresholds are exactly the prime ones, every element is
    the meet (join) of those above (below) it, the generator values are
    the maximal (minimal) solutions, and each side reads its own table
    and order."""
    t, rng, leq = q.prime_tables, range(q.n), q.leq
    assert t.distributive
    meet_prime = [u for u in rng if u != q.top and all(
        leq[a][u] or leq[b][u] for a in rng for b in rng if leq[q.meet(a, b)][u])]
    join_prime = [j for j in rng if j != q.bottom and all(
        leq[j][a] or leq[j][b] for a in rng for b in rng if leq[j][q.join(a, b)])]
    assert list(t.lower.thresholds) == meet_prime
    assert list(t.upper.thresholds) == join_prime
    for v in rng:
        assert q.meet_all(u for u in meet_prime if leq[v][u]) == v
        assert q.join_all(j for j in join_prime if leq[j][v]) == v
    for a in rng:
        for k, u in enumerate(meet_prime):
            fits = [b for b in rng if leq[q.residuate(a, b)][u]]
            assert set(t.lower.generators[a][k]) == {
                b for b in fits if all(c == b or not leq[b][c] for c in fits)}
        for k, j in enumerate(join_prime):
            fits = [b for b in rng if leq[j][q.tensor(a, b)]]
            assert set(t.upper.generators[a][k]) == {
                b for b in fits if all(c == b or not leq[c][b] for c in fits)}
    assert (t.lower.table, t.lower.keeps) == (q.res_table, q.leq)
    assert (t.upper.table, t.upper.keeps) == (q.tensor_table, tuple(zip(*q.leq)))


def test_derived_facts_are_kept_past_the_frozen_setattr():
    """A cached_property writes through the instance __dict__, which
    slows every later attribute read; each fact is derived once and
    kept without one."""
    q = boolean4()
    for name in ("prime_tables", "unit_join_irreducible"):
        assert not isinstance(inspect.getattr_static(q, name), cached_property), name
        assert getattr(q, name) is getattr(q, name), name
    assert q.unit_join_irreducible is False
    assert lukasiewicz_chain(3).unit_join_irreducible is True


def test_a_quantale_hashes_its_index_tables():
    """The hash is kept, and read off the order, tensor and unit
    indices, which hash alike in every process: a quantale pickled after
    it was hashed, in a process with another string hash seed, hashes as
    one built here."""
    q = boolean4()
    assert hash(q) == hash((q.leq, q.tensor_table, q.unit)) == hash(q)
    made = subprocess.run(
        [sys.executable, "-c", "import pickle, sys; from qideal.quantale import boolean4; "
         "q = boolean4(); hash(q); sys.stdout.buffer.write(pickle.dumps(q))"],
        capture_output=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "1",
             "PYTHONPATH": os.pathsep.join(sys.path)})
    twin = pickle.loads(made.stdout)
    assert twin == q and hash(twin) == hash(q)
    assert {q: 1}[twin] == 1
