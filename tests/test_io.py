"""JSON instance files: loading, dumping, file references."""

import json
from fractions import Fraction

import pytest

from qideal.errors import BudgetExceeded
from qideal.fuzzy import yoneda
from qideal.io import (
    dump_instance,
    jsonable,
    load_instance,
    load_quantale,
    parse_label,
    save_instance,
)
from qideal.ideals import periodic_sequence
from qideal.interval import DEFAULT_TOLERANCE, interval_quantale
from qideal.qorder import build_qmap, opposite, standard_qorder
from qideal.quantale import boolean4, build_finite_quantale, chain_quantale, lukasiewicz_chain


def test_parse_label_edges():
    assert parse_label("1/3") == Fraction(1, 3)
    assert parse_label("-2") == Fraction(-2)
    assert parse_label(1) == Fraction(1)
    assert parse_label(0.5) == Fraction(1, 2)
    assert parse_label(True) is True
    assert parse_label("mid") == "mid"
    assert jsonable(Fraction(1, 3)) == "1/3"
    assert jsonable("mid") == "mid"


def test_quantale_roundtrips():
    for q in (boolean4(), lukasiewicz_chain(4),
              chain_quantale("godel", carrier=[Fraction(0), Fraction(1, 3),
                                               Fraction(1)])):
        assert load_quantale(dump_instance(q)) == q


def test_interval_quantale_roundtrip():
    q = interval_quantale("ordinal_sum",
                          pieces=((0.0, 0.5, "lukasiewicz"),
                                  (0.5, 1.0, "product")))
    data = dump_instance(q)
    assert data["kind"] == "interval"
    # io reaches the interval layer only past the finite kinds
    assert jsonable([q, range(2)]) == [data, "range(0, 2)"]
    with pytest.raises(TypeError, match="cannot dump range"):
        dump_instance(range(2))
    back = load_quantale(data)
    assert back.tnorm == q.tnorm and back.pieces == q.pieces
    assert back.tolerance == q.tolerance


def test_table_quantale_roundtrip():
    # labels stay strings as long as they are not rational-shaped
    elements = ("bot", "mid", "top")
    leq = ((True, True, True), (False, True, True), (False, False, True))
    tensor = (("bot", "bot", "bot"), ("bot", "mid", "mid"),
              ("bot", "mid", "top"))
    q = build_finite_quantale(elements, leq, tensor, "top")
    data = dump_instance(q)
    assert data["kind"] == "table"
    assert load_quantale(data) == q


def test_qorder_roundtrip_and_named_forms():
    L3 = lukasiewicz_chain(3)
    A = standard_qorder(L3, "dL")
    back = load_instance(dump_instance(A))
    assert back.hom == A.hom and back.elements == A.elements
    named = load_instance({"base": {"kind": "chain", "tnorm": "lukasiewicz",
                                    "n": 3}, "name": "dL"})
    assert named.hom == A.hom
    crisp = load_instance({"base": {"kind": "boolean4"},
                           "elements": ["a", "b"],
                           "crisp_leq": [[True, True], [False, True]]})
    assert crisp.degree("a", "b") == "1"


def test_boolean4_labels_survive_a_roundtrip():
    # "0" and "1" come back as rationals and must still hit the carrier
    A = standard_qorder(boolean4(), "dL")
    phi = yoneda(A, "a")
    back = load_instance(dump_instance(phi))
    assert back.values == phi.values
    assert back.base.hom == A.hom


def test_fuzzy_map_sequence_roundtrips():
    L3 = lukasiewicz_chain(3)
    A = standard_qorder(L3, "dL")
    phi = yoneda(A, Fraction(1, 2))
    assert load_instance(dump_instance(phi)).values == phi.values
    f = build_qmap(A, A, dict(zip(A.elements, A.elements)))
    assert load_instance(dump_instance(f)).mapping == f.mapping
    s = periodic_sequence(A, cycle=(Fraction(1),), prefix=(Fraction(0),))
    back = load_instance(dump_instance(s))
    assert back.cycle == s.cycle and back.prefix == s.prefix
    # list-shaped values work too
    listy = load_instance({"order": dump_instance(A),
                           "values": ["1", "1", "1/2"]})
    assert listy.value(Fraction(1)) == Fraction(1, 2)


def test_load_instance_inference_guards():
    with pytest.raises(ValueError, match="cannot infer"):
        load_instance({"zap": 1})
    with pytest.raises(ValueError, match="unknown quantale kind"):
        load_instance({"kind": "spiral"})


def test_file_references_resolve_relative(tmp_path):
    (tmp_path / "q.json").write_text(
        json.dumps({"kind": "chain", "tnorm": "lukasiewicz", "n": 3}))
    (tmp_path / "order.json").write_text(
        json.dumps({"base": "q.json", "name": "dL"}))
    (tmp_path / "phi.json").write_text(
        json.dumps({"order": "order.json", "values": ["1", "1/2", "0"]}))
    phi = load_instance(str(tmp_path / "phi.json"))
    assert phi.base.n == 3
    assert phi.value(Fraction(1, 2)) == Fraction(1, 2)


def test_save_instance(tmp_path):
    A = standard_qorder(lukasiewicz_chain(3), "dL")
    path = tmp_path / "order.json"
    save_instance(A, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert load_instance(str(path)).hom == A.hom


def _every_kind(kind):
    L3 = lukasiewicz_chain(3)
    A = standard_qorder(L3, "dL")
    P = standard_qorder(L3, "power", n=2)
    return {
        "chain": lambda: L3,
        "chain-carrier": lambda: chain_quantale("godel", carrier=["0", "1/3", "1"]),
        "table": lambda: build_finite_quantale(
            ("bot", "mid", "top"),
            ((True, True, True), (False, True, True), (False, False, True)),
            (("bot", "bot", "bot"), ("bot", "mid", "mid"), ("bot", "mid", "top")), "top"),
        "interval": lambda: interval_quantale(
            "ordinal_sum", pieces=((0.0, 0.5, "lukasiewicz"), (0.5, 1.0, "product"))),
        "qorder": lambda: A,
        "power": lambda: P,
        "power-boolean4": lambda: standard_qorder(boolean4(), "power", labels=["u"]),
        "fuzzy-set": lambda: yoneda(A, Fraction(1, 2)),
        "fuzzy-set-on-power": lambda: yoneda(P, P.elements[5]),
        "map": lambda: build_qmap(A, A, dict(zip(A.elements, reversed(A.elements)))),
        "map-on-power": lambda: build_qmap(P, P, dict(zip(P.elements, P.elements))),
        "sequence": lambda: periodic_sequence(A, cycle=(Fraction(1),), prefix=(Fraction(0),)),
    }[kind]()


@pytest.mark.parametrize("kind", [
    "chain", "chain-carrier", "table", "interval", "qorder", "power", "power-boolean4",
    "fuzzy-set", "fuzzy-set-on-power", "map", "map-on-power", "sequence"])
def test_every_kind_is_spelled_by_jsonable_alone(kind):
    """Each dump is plain JSON, equals jsonable of the instance, and
    loads back to an equal instance."""
    x = _every_kind(kind)
    data = dump_instance(x)
    assert json.loads(json.dumps(data)) == data
    assert jsonable(x) == data
    assert load_instance(json.loads(json.dumps(data))) == x


def test_a_power_order_is_saved_and_read_back(tmp_path):
    """Its points are named by strings, so save_instance writes them and
    load_instance finds each one again."""
    P = standard_qorder(lukasiewicz_chain(3), "power", n=2)
    path = tmp_path / "power.json"
    save_instance(P, path)
    back = load_instance(str(path))
    assert back == P and back.elements[:2] == ("(0, 0)", "(0, 1/2)")
    assert load_instance(jsonable(dump_instance(P))) == P
    phi = yoneda(P, "(1/2, 1)")
    save_instance(phi, path)
    assert load_instance(str(path)) == phi
    keys = dump_instance(standard_qorder(boolean4(), "power", n=1))["elements"]
    assert keys == ["(0)", "(a)", "(b)", "(1)"]


def test_jsonable_payloads():
    A = standard_qorder(lukasiewicz_chain(3), "dL")
    out = jsonable({"degree": Fraction(1, 2),
                    Fraction(0): ("a", frozenset({1})),
                    "order": A})
    assert out["degree"] == "1/2"
    assert out["0"] == ["a", [1]]
    assert out["order"]["base"] == {"kind": "chain", "tnorm": "lukasiewicz",
                                    "n": 3}
    assert json.dumps(out)
    assert jsonable(object()).startswith("<object")


def test_loaders_charge_sizes_at_the_default_budget():
    with pytest.raises(BudgetExceeded, match="quantale law checks"):
        load_instance({"kind": "chain", "tnorm": "godel", "n": 171})
    assert load_instance({"kind": "chain", "tnorm": "godel", "n": 4}).n == 4
    with pytest.raises(BudgetExceeded, match="hom entries"):
        load_instance({"base": {"kind": "boolean4"}, "name": "discrete", "n": 2237})
    with pytest.raises(BudgetExceeded, match="27 quantale law checks"):
        load_instance({"order": {"base": {"kind": "chain", "tnorm": "godel", "n": 3},
                                 "name": "dL"}, "values": [1, 1, 1]}, budget=26)


@pytest.mark.parametrize("data", [
    {"kind": "chain", "tnorm": "godel", "n": "4"},
    {"kind": "chain", "tnorm": "godel", "n": 4.0},
    {"kind": "chain", "tnorm": "godel", "n": True},
    {"base": {"kind": "boolean4"}, "name": "discrete", "n": "3"},
    {"base": {"kind": "boolean4"}, "name": "discrete", "n": True},
    {"base": {"kind": "boolean4"}, "name": "power", "n": "3"}],
    ids=["chain-str", "chain-float", "chain-bool", "discrete-str", "discrete-bool",
         "power-str"])
def test_loaders_refuse_a_size_that_is_not_an_integer(data):
    with pytest.raises(ValueError, match='^"n" must be an integer, got '):
        load_instance(data)


@pytest.mark.parametrize("tolerance", [-1, -1e-12, True, False, float("nan"), float("inf"),
                                       10 ** 400, "1e-9", [1e-9]],
                         ids=["negative", "slightly-negative", "true", "false", "nan", "inf",
                              "past-every-float", "string", "list"])
def test_an_interval_tolerance_is_a_finite_real_at_least_zero(tolerance):
    with pytest.raises(ValueError, match="^tolerance must be a finite real >= 0"):
        load_quantale({"kind": "interval", "tnorm": "product", "tolerance": tolerance})


def test_an_interval_tolerance_defaults_once():
    assert load_quantale({"kind": "interval", "tnorm": "min"}).tolerance == DEFAULT_TOLERANCE
    for tolerance in (0, 1e-3, Fraction(1, 4), 2):
        q = load_quantale({"kind": "interval", "tnorm": "min", "tolerance": tolerance})
        assert q.tolerance == float(tolerance) and type(q.tolerance) is float


@pytest.mark.parametrize("name,missing", [("discrete", '"n" or "labels"'),
                                          ("power", '"n" or "labels"')])
def test_named_orders_name_what_they_miss(name, missing):
    with pytest.raises(ValueError, match=missing):
        load_instance({"base": {"kind": "boolean4"}, "name": name})


def test_standard_opposite_needs_the_order_it_flips():
    """opposite(A) flips a Q-order it is given, which a name alone
    cannot give, so neither the constructor nor an instance names it."""
    with pytest.raises(ValueError, match="^unknown standard Q-order 'opposite'$"):
        standard_qorder(boolean4(), "opposite")
    with pytest.raises(ValueError, match="^unknown standard Q-order 'opposite'$"):
        load_instance({"base": {"kind": "boolean4"}, "name": "opposite"})
    q = boolean4()
    assert opposite(standard_qorder(q, "dL")).hom == standard_qorder(q, "dR").hom
    with pytest.raises(ValueError, match='"n" or "labels"'):
        standard_qorder(boolean4(), "discrete")
