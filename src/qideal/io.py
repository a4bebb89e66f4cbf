"""JSON reading and writing for instances.

Wherever an object is expected, a string is a file reference resolved
against the directory of the containing file.  Rational labels travel
as "p/q" strings, and jsonable alone spells a label for JSON: every
dump builds its labels and passes them through it once.  A point of a
power order is the string "(v1, ..., vk)" of its values' labels, so it
is written and read back like any other label.  Shapes:

quantale   {"kind": "boolean4"}
           {"kind": "chain", "tnorm": "godel", "n": 4}            (or "carrier": [...])
           {"kind": "interval", "tnorm": "product", "pieces": [[lo, hi, "kind"], ...]}
           {"kind": "table", "elements": [...], "leq": [[bool]],
            "tensor": [[label]], "unit": label}
qorder     {"base": quantale, "name": "dL", ...params}
           {"base": quantale, "elements": [...], "hom": [[label]]}
           {"base": quantale, "elements": [...], "crisp_leq": [[bool]]}
fuzzy set  {"order": qorder, "values": {element: label} | [label, ...]}
map        {"source": qorder, "target": qorder, "mapping": {...} | [...]}
sequence   {"order": qorder, "cycle": [...], "prefix": [...]}

The instance kind is inferred from the keys, so one loader serves the
whole command line.  Sizes are charged against the caller's budget
before any table is built: a chain or table quantale on n elements
costs n**3 law checks, a discrete order on n points (or labels) n**2
hom entries, an order given by its elements n**3 law checks, and the
power construction charges its own hom lookups.  A size "n"
must be an integer (not a bool).  An instance carries no budget of its
own.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from .errors import _charge
from .fuzzy import FuzzySet, fuzzy_set
from .ideals import EventuallyPeriodicSequence, periodic_sequence
from .qorder import QMap, QOrderedSet, build_qmap, build_qorder, crisp_qorder, standard_qorder
from .quantale import FiniteQuantale, boolean4, build_finite_quantale, chain_quantale

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def parse_label(v):
    """JSON scalar to a carrier label: numbers and "p/q" strings become
    exact rationals, anything else stays as written."""
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return Fraction(v) if isinstance(v, int) else Fraction(str(v))
    if isinstance(v, str) and _RATIONAL.match(v):
        return Fraction(v)
    return v


def _resolve(data, base_dir):
    if isinstance(data, str):
        path = data if os.path.isabs(data) else os.path.join(base_dir or ".", data)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), os.path.dirname(path)
    return data, base_dir


def _size(data):
    """data["n"], None when there is none; a size that is not an int (a
    bool is not) is refused naming the key."""
    n = data.get("n")
    if "n" in data and type(n) is not int:
        raise ValueError(f'"n" must be an integer, got {n!r}')
    return n


def _charge_size(size, budget, what, power):
    """Refuse an instance whose size, raised to power, passes the budget."""
    if size is not None:
        _charge(size ** power, budget, what)


def load_quantale(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    kind = data.get("kind", "chain")
    if kind == "boolean4":
        return boolean4()
    if kind == "chain":
        n, carrier = _size(data), data.get("carrier")
        _charge_size(n if carrier is None else len(carrier), budget,
                     "quantale law checks", 3)
        if carrier is not None:
            carrier = [parse_label(c) for c in carrier]
        return chain_quantale(data["tnorm"], n=n, carrier=carrier)
    if kind == "interval":
        from .interval import interval_quantale
        pieces = tuple(tuple(p) for p in data.get("pieces") or ())
        return interval_quantale(data["tnorm"], pieces=pieces or None,
                                 tolerance=data.get("tolerance"))
    if kind == "table":
        _charge_size(len(data["elements"]), budget, "quantale law checks", 3)
        elements = [parse_label(e) for e in data["elements"]]
        leq = [[bool(v) for v in row] for row in data["leq"]]
        tensor = [[parse_label(v) for v in row] for row in data["tensor"]]
        return build_finite_quantale(elements, leq, tensor, parse_label(data["unit"]))
    raise ValueError(f"unknown quantale kind {kind!r}")


def load_qorder(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    base = load_quantale(data["base"], base_dir, budget)
    if "name" in data:
        params = {k: v for k, v in data.items() if k not in ("base", "name")}
        if "budget" in params:
            raise ValueError("an instance cannot set a budget; the caller's applies")
        if data["name"] == "opposite":
            raise ValueError('"opposite" needs the Q-order it flips, which an instance '
                             'cannot name; give its "elements" and "hom" instead')
        n = _size(params)
        if params.get("labels") is not None:
            n = len(params["labels"])
            params["labels"] = [parse_label(e) for e in params["labels"]]
        if data["name"] == "discrete":
            _charge_size(n, budget, "hom entries", 2)
        return standard_qorder(base, data["name"], budget=budget, **params)
    _charge_size(len(data["elements"]), budget, "qorder law checks", 3)
    elements = [parse_label(e) for e in data["elements"]]
    if "crisp_leq" in data:
        return crisp_qorder(base, elements, [[bool(v) for v in row]
                                             for row in data["crisp_leq"]])
    return build_qorder(base, elements, data["hom"])


def load_fuzzy_set(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    order = load_qorder(data["order"], base_dir, budget)
    return fuzzy_set(order, data["values"])


def load_qmap(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    source = load_qorder(data["source"], base_dir, budget)
    target = load_qorder(data["target"], base_dir, budget)
    return build_qmap(source, target, data["mapping"])


def load_sequence(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    order = load_qorder(data["order"], base_dir, budget)
    return periodic_sequence(order, data["cycle"], prefix=data.get("prefix", ()))


def load_instance(data, base_dir=None, budget=None):
    """Load whatever the file holds, keyed on its shape."""
    data, base_dir = _resolve(data, base_dir)
    if "cycle" in data:
        return load_sequence(data, base_dir, budget)
    if "mapping" in data:
        return load_qmap(data, base_dir, budget)
    if "values" in data:
        return load_fuzzy_set(data, base_dir, budget)
    if "base" in data:
        return load_qorder(data, base_dir, budget)
    if "kind" in data or "tensor" in data:
        return load_quantale(data, base_dir, budget)
    raise ValueError("cannot infer the instance kind from the keys "
                     f"{sorted(data)}")


def dump_quantale(q):
    if not isinstance(q, FiniteQuantale):
        return jsonable({"kind": "interval", "tnorm": q.tnorm, "pieces": q.pieces,
                         "tolerance": q.tolerance})
    name, params = q.catalog if q.catalog else ("", {})
    if name == "boolean4":
        return {"kind": "boolean4"}
    if name.endswith("_chain"):
        return jsonable({"kind": "chain", "tnorm": name[:-len("_chain")], **params})
    lab = q.elements.__getitem__
    return jsonable({"kind": "table", "elements": q.elements,
                     "leq": [[bool(v) for v in row] for row in q.leq],
                     "tensor": [[lab(v) for v in row] for row in q.tensor_table],
                     "unit": lab(q.unit)})


def dump_qorder(A):
    lab = A.quantale.elements.__getitem__
    return jsonable({"base": A.quantale, "elements": A.elements,
                     "hom": [[lab(v) for v in row] for row in A.hom]})


def dump_fuzzy_set(phi):
    return jsonable({"order": phi.base, "values": phi.as_dict()})


def dump_qmap(f):
    tgt = f.target.elements.__getitem__
    return jsonable({"source": f.source, "target": f.target,
                     "mapping": {e: tgt(j) for e, j in zip(f.source.elements, f.mapping)}})


def dump_sequence(s):
    return jsonable({"order": s.base, **s.describe()})


def dump_instance(obj):
    """The JSON shape of an instance, which its loader reads back;
    anything else is refused with TypeError."""
    if isinstance(obj, FiniteQuantale):
        return dump_quantale(obj)
    if isinstance(obj, QOrderedSet):
        return dump_qorder(obj)
    if isinstance(obj, FuzzySet):
        return dump_fuzzy_set(obj)
    if isinstance(obj, QMap):
        return dump_qmap(obj)
    if isinstance(obj, EventuallyPeriodicSequence):
        return dump_sequence(obj)
    from .interval import IntervalQuantale
    if isinstance(obj, IntervalQuantale):
        return dump_quantale(obj)
    raise TypeError(f"cannot dump {type(obj).__name__}")


def save_instance(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump_instance(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def jsonable(x):
    """Labels, witness payloads and instances to plain JSON types,
    recursively; the one place a label is spelled for JSON.  A Fraction
    becomes "p/q", a dict key the string of its JSON form, an instance
    its dump_instance shape, and anything else its str()."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        # a str key is its own JSON form, and most keys are strings
        return {k if isinstance(k, str) else str(jsonable(k)): jsonable(v)
                for k, v in x.items()}
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    try:
        return dump_instance(x)
    except TypeError:
        return str(x)
