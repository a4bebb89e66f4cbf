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
power construction charges its own hom lookups.  A value of the wrong
JSON type is refused naming its key (a size "n" is an integer, not a
bool), a Q-order needs a finite base, and no instance sets a budget.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

from .errors import ShapeMismatch, _charge
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


# how a refusal names a JSON type other than null; a label is any JSON scalar
_TYPE_NAMES = {list: "a list", dict: "an object", str: "a string", int: "an integer"}
_LABEL = (str, int, float, bool, type(None))


def _read(data, key, types, each=None):
    """data[key], refused naming the key unless its JSON type (null when
    absent; a bool is no integer) is in types, and each item's in each."""
    value = data.get(key)
    if type(value) not in types:
        raise ValueError(f'"{key}" must be {_spell(types)}, got {value!r}')
    for item in (value or ()) if each else ():
        if type(item) not in each:
            raise ValueError(f'each entry of "{key}" must be {_spell(each)}, got {item!r}')
    return value


def _spell(types):
    return "a label" if types is _LABEL else " or ".join(filter(None, map(_TYPE_NAMES.get, types)))


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
        n, carrier = _read(data, "n", (int, type(None))), \
            _read(data, "carrier", (list, type(None)), _LABEL)
        _charge_size(n if carrier is None else len(carrier), budget,
                     "quantale law checks", 3)
        if carrier is not None:
            carrier = [parse_label(c) for c in carrier]
        return chain_quantale(_read(data, "tnorm", (str,)), n=n, carrier=carrier)
    if kind == "interval":
        from .interval import interval_quantale
        return interval_quantale(_read(data, "tnorm", (str,)),
                                 pieces=_read(data, "pieces", (list, type(None))) or None,
                                 tolerance=data.get("tolerance"))
    if kind == "table":
        elements = [parse_label(e) for e in _read(data, "elements", (list,), _LABEL)]
        _charge_size(len(elements), budget, "quantale law checks", 3)
        leq = [[bool(v) for v in row] for row in _read(data, "leq", (list,), (list,))]
        tensor = [[parse_label(v) for v in row] for row in _read(data, "tensor", (list,), (list,))]
        return build_finite_quantale(elements, leq, tensor, parse_label(data["unit"]))
    raise ValueError(f"unknown quantale kind {kind!r}")


def load_qorder(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    base = load_quantale(_read(data, "base", (dict, str)), base_dir, budget)
    if not isinstance(base, FiniteQuantale):
        raise ShapeMismatch("a Q-order needs a finite base", witness=(type(base).__name__,))
    if "name" in data:
        params = {k: v for k, v in data.items() if k not in ("base", "name")}
        if "budget" in params:
            raise ValueError("an instance cannot set a budget; the caller's applies")
        n = _read(params, "n", (int, type(None)))
        labels = _read(params, "labels", (list, type(None)), _LABEL)
        if labels is not None:
            n = len(labels)
            params["labels"] = [parse_label(e) for e in labels]
        if data["name"] == "discrete":
            _charge_size(n, budget, "hom entries", 2)
        return standard_qorder(base, _read(data, "name", (str,)), budget=budget, **params)
    elements = [parse_label(e) for e in _read(data, "elements", (list,), _LABEL)]
    _charge_size(len(elements), budget, "qorder law checks", 3)
    if "crisp_leq" in data:
        return crisp_qorder(base, elements, [[bool(v) for v in row] for row in
                                             _read(data, "crisp_leq", (list,), (list,))])
    return build_qorder(base, elements, _read(data, "hom", (list,), (list,)))


def load_fuzzy_set(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    order = load_qorder(_read(data, "order", (dict, str)), base_dir, budget)
    return fuzzy_set(order, _read(data, "values", (dict, list)))


def load_qmap(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    source = load_qorder(_read(data, "source", (dict, str)), base_dir, budget)
    target = load_qorder(_read(data, "target", (dict, str)), base_dir, budget)
    return build_qmap(source, target, _read(data, "mapping", (dict, list)))


def load_sequence(data, base_dir=None, budget=None):
    data, base_dir = _resolve(data, base_dir)
    order = load_qorder(_read(data, "order", (dict, str)), base_dir, budget)
    return periodic_sequence(order, _read(data, "cycle", (list,)),
                             prefix=_read(data, "prefix", (list, type(None))) or ())


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
