"""Command-line front end.

Arguments that name instances accept either a file path or inline JSON
(anything starting with "{" or "[").  Reports go to stdout as JSON; a
human-readable summary goes to stderr.  Exit codes: 0 pass, 1 fail, 2
usage error or blown budget.

Each command imports the layers it calls when it runs, so a process
loads only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceeded,
    GridTooCoarse,
    QidealError,
    ValidationError,
    _charge,
)


def _load_arg(text, budget, loader):
    if text.lstrip().startswith(("{", "[")):
        return loader(json.loads(text), budget=budget)
    return loader(text, budget=budget)


def _dump(report, fh):
    """The report as indented JSON and a newline, written to fh as it is
    encoded, so no string of the whole report is built.  The encoder's
    chunks are joined a few thousand at a time: one write per chunk
    costs more than the encoding."""
    from itertools import islice

    from .io import jsonable

    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(jsonable(report))
    for text in iter(lambda: "".join(islice(chunks, 4096)), ""):
        fh.write(text)
    fh.write("\n")


def _emit(report, summary_lines):
    _dump(report, sys.stdout)
    for line in summary_lines:
        print(line, file=sys.stderr)


def _cmd_validate(args):
    from .fuzzy import FuzzySet, classify_fuzzy_set
    from .ideals import EventuallyPeriodicSequence, settling_violation
    from .io import load_instance
    from .qorder import QMap, QOrderedSet, validate_qorder
    from .quantale import quantale_properties

    obj = _load_arg(args.instance, args.budget, load_instance)
    if isinstance(obj, QOrderedSet):
        _charge(obj.n ** 3, args.budget, "qorder law checks")
        bad = validate_qorder(obj)
        report = {"kind": "qorder", "valid": bad is None, "violation": bad}
        _emit(report, [f"qorder: {'valid' if bad is None else 'INVALID'}"])
        return 0 if bad is None else 1
    if isinstance(obj, FuzzySet):
        shape = classify_fuzzy_set(obj)
        report = {"kind": "fuzzy-set", "valid": True, "shape": shape}
        _emit(report, ["fuzzy set: loaded; shape flags reported"])
        return 0
    if isinstance(obj, QMap):
        ok = obj.is_order_preserving
        report = {"kind": "map", "valid": True, "order_preserving": ok,
                  "violation": None if ok else obj.order_violation()}
        _emit(report, [f"map: loaded; order preserving: {ok}"])
        return 0
    if isinstance(obj, EventuallyPeriodicSequence):
        w = settling_violation(obj)
        report = {"kind": "sequence", "valid": w is None,
                  "settles": w is None,
                  "violation": None if w is None else
                  {"cycle_positions": w,
                   "labels": [obj.base.elements[obj.cycle[k]] for k in w]}}
        _emit(report, [f"sequence: {'settles' if w is None else 'does NOT settle'}"])
        return 0 if w is None else 1
    # a finite or an interval quantale: quantale_properties hands the
    # latter to qideal.interval, which no other kind needs
    props = quantale_properties(obj)
    report = {"kind": "quantale", "valid": True, "properties": vars(props)}
    _emit(report, ["quantale: laws hold (construction re-checks them)"])
    return 0


def _cmd_classify(args):
    from .fuzzy import classify_fuzzy_set, fuzzy_set
    from .ideals import classify_ideal
    from .io import load_qorder

    order = _load_arg(args.qorder, args.budget, load_qorder)
    raw = args.fuzzyset
    data = json.loads(raw) if raw.lstrip().startswith(("{", "[")) else None
    if data is None:
        with open(raw, encoding="utf-8") as fh:
            data = json.load(fh)
    if isinstance(data, dict) and "values" in data:
        data = data["values"]
    phi = fuzzy_set(order, data)
    shape = classify_fuzzy_set(phi)
    rep = classify_ideal(phi, budget=args.budget)
    report = {"values": phi.as_dict(), "shape": shape,
              "inhabited": rep.inhabited, "flat": rep.flat,
              "irreducible": rep.irreducible,
              "forward_cauchy": rep.forward_cauchy,
              "witnesses": rep.witnesses}
    flags = [name for name, v in (("inhabited", rep.inhabited),
                                  ("flat", rep.flat),
                                  ("irreducible", rep.irreducible),
                                  ("forward-cauchy", rep.forward_cauchy)) if v]
    _emit(report, ["classify: " + (", ".join(flags) if flags else "none")])
    return 0


def _cmd_enumerate(args):
    from .ideals import enumerate_ideals
    from .io import load_qorder

    order = _load_arg(args.qorder, args.budget, load_qorder)
    ideals = enumerate_ideals(order, args.cls, budget=args.budget)
    report = {"class": args.cls, "count": len(ideals),
              "ideals": [p.as_dict() for p in ideals]}
    _emit(report, [f"enumerate: {len(ideals)} {args.cls} ideals"])
    return 0


def _cmd_scott(args):
    from .io import load_qorder
    from .scott import generate_scott_structure

    order = _load_arg(args.qorder, args.budget, load_qorder)
    S = generate_scott_structure(order, args.mode, which=args.cls,
                                 budget=args.budget)
    report = {"mode": S.mode, "class": S.class_tag,
              "count": len(S.members),
              "members": [m.as_dict() for m in S.members],
              "axioms": S.axioms, "stratified": S.stratified,
              "co_stratified": S.co_stratified, "strong": S.strong}
    _emit(report, [f"scott: {len(S.members)} members, axioms "
                   + ", ".join(f"{k}={'y' if v else 'n'}"
                               for k, v in S.axioms.items())])
    return 0


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--param wants k=v, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _cmd_check(args):
    from .suites import run_suite

    result = run_suite(args.suite, seed=args.seed, budget=args.budget,
                       tolerance=args.tolerance, **_parse_params(args.param))
    report = result.to_json()
    lines = result.summary().splitlines()
    path = args.report
    if path is None and result.verdict == "fail":
        path = f"qideal-{result.name.lower()}-report.json"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            _dump(report, fh)
        lines.append(f"report written to {path}")
    _emit(report, lines)
    if result.verdict == "pass":
        return 0
    if result.verdict == "fail":
        return 1
    return 2


def _cmd_search(args):
    from .suites import search_counterexample

    report = search_counterexample(args.shape, seed=args.seed,
                                   budget=args.budget, limit=args.limit)
    lines = [f"search {args.shape}: "
             + ("counterexample found on " + report["instance"]
                if report["found"] else
                f"nothing in {report['checked']['instances']} instances "
                f"({report['checked']['ideals']} ideals)")]
    if report["found"]:
        path = args.report or f"qideal-search-{args.shape}.json"
        with open(path, "w", encoding="utf-8") as fh:
            _dump(report, fh)
        lines.append(f"witness written to {path}")
    _emit(report, lines)
    return 1 if report["found"] else 0


class _SuiteHelp(argparse.HelpFormatter):
    """Lists the suite names as the help of `check`'s argument, reading
    the registry only when the help is shown."""

    def _get_help_string(self, action):
        if action.dest != "suite":
            return action.help
        from .suites import suite_names
        return ", ".join(suite_names())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qideal",
        description="Ideal classes, completions, and Scott structures "
                    "over quantale-valued orders.")
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit seed for randomized instance generation")
    parser.add_argument("--budget", type=int, default=None,
                        help="enumeration budget override")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="numeric tolerance for interval backends")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load an instance file and "
                       "recheck its laws")
    p.add_argument("instance", help="file path or inline JSON")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("classify", help="classify a fuzzy set over an order")
    p.add_argument("qorder", help="ordered-set file or inline JSON")
    p.add_argument("fuzzyset", help="values (dict/list), a fuzzy-set file, "
                   "or inline JSON")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("enumerate", help="enumerate the ideals of a class")
    p.add_argument("qorder")
    p.add_argument("--class", dest="cls", default="fc",
                   choices=("fc", "flat", "irr", "lower"))
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("scott", help="generate the open or closed structure")
    p.add_argument("qorder")
    p.add_argument("--class", dest="cls", default=None,
                   choices=("fc", "flat", "irr"))
    p.add_argument("--mode", default="top", choices=("top", "cotop"))
    p.set_defaults(fn=_cmd_scott)

    p = sub.add_parser("check", help="run a named suite", formatter_class=_SuiteHelp)
    p.add_argument("suite", help="one of the suite names")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="suite parameter, repeatable")
    p.add_argument("--report", default=None,
                   help="write the JSON report here (default: only on "
                        "fail, to qideal-<suite>-report.json)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("search-counterexample",
                       help="look for an ideal separating two classes")
    p.add_argument("--shape", required=True,
                   help="<class>-not-<class> with classes fc, flat, irr")
    p.add_argument("--limit", type=int, default=200,
                   help="scan the first N bases of the class-comparison battery")
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_search)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetExceeded, GridTooCoarse) as e:
        print(f"budget: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"invalid instance: {e}", file=sys.stderr)
        return 1
    except KeyError as e:
        # str() of a KeyError is the repr of its argument, quotes and all
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except QidealError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
