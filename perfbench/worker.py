"""Workload inputs and one pass of a workload, each run in a fresh process.

    python perfbench/worker.py plan WORKLOAD SEED OUT   write the op plan
    python perfbench/worker.py setup PLAN               import and build only
    python perfbench/worker.py run PLAN [--spans DIR]   run every op of the plan
    python perfbench/worker.py pins                     print pins.json for the
                                                        current program

`run` prints one JSON line per op as it finishes ({"op", "s", "ok",
"items", "error"}) and a last line {"wall_s", "cal_s", "rss_mb"}: the
summed op time, the median calibration time and the peak RSS.  An op missing
from the output did not finish.  With --spans the layer wrappers are
installed before set-up and the spans are written into DIR at the end.
Needs `src/` of the checkout on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
DEFAULT_SEED = 20260819

SUITES = (
    "FC_SUBSET_IRR", "FC_SUBSET_FLAT", "IRR_SUBSET_FLAT_PRELINEAR",
    "FLAT_EQ_IRR_DOUBLENEG", "LINEAR_IRR_EQ_FC", "BOOLEAN4_COUNTEREXAMPLE",
    "GODEL_FLAT_NOT_IRR", "COR312_FAMILIES", "SATURATION_FC",
    "SATURATION_FLAT", "SATURATION_IRR", "THM42_FREE", "SCOTT_AXIOMS",
    "PROP57_EQUIV", "EX58_CHARACTERIZATION", "EX510_GENERATION",
    "CLASSICAL_DEGENERATION",
)
SUITE_TIMEOUT_S = 60

# Rungs of dL/dR over Lukasiewicz-k that the default budget admits today.
# Larger k joins once enumeration no longer visits the full |Q|^n product.
SPARSE_K = (4, 5, 6, 7)
# Discrete orders: every candidate vector is a lower and an upper set.
DENSE_RUNGS = ((("lukasiewicz", 3), range(2, 11)), (("boolean4", 4), range(2, 8)))

# Census bases: random 5-point orders over a frame and a non-frame, a
# linear and a non-linear quantale.  Flags are the theorem side conditions;
# they are stated here, not computed by the program under test.
CENSUS_QUANTALES = (
    # spec,                   linear, prelinear, double negation
    (("boolean4", 4),          False, True, True),
    (("godel", 5),             True, True, False),
    (("nilpotent_minimum", 4), True, True, True),
    (("lukasiewicz", 4),       True, True, True),
)
CENSUS_POINTS = 5
# Lower sets classified per quantale.  A base's cost grows roughly with
# the cube of its lower-set count, so bases outside the window are
# skipped: that keeps the pass size, and its cost, nearly seed-free.
CENSUS_SETS_PER_QUANTALE = 1500
CENSUS_WINDOW = (12, 64)


# A shared VM can change speed by a quarter over tens of seconds (seen on a
# 2-core x86-64 VM).  Times are therefore scaled by a calibration: a fixed
# slice of interpreter work much like the program's (tuple building, table
# lookups, dict updates), timed between operations with the collector off,
# so that the program's heap does not slow it down.
CALIBRATE_EVERY_S = 0.5
_TABLE = tuple(tuple((i * j) % 7 for j in range(7)) for i in range(7))


def calibrate():
    """Seconds taken by the calibration slice right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {}
        for vec in itertools.product(range(7), repeat=5):
            key = tuple(_TABLE[a][b] for a, b in zip(vec, vec[1:]))
            seen[key] = seen.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def build_quantale(spec):
    from qideal.quantale import boolean4, chain_quantale

    name, n = spec
    return boolean4() if name == "boolean4" else chain_quantale(name, n=n)


def closed_hom(q, n, rng):
    """Random hom table of quantale indices, closed to a Q-order:
    unit diagonal, then A(x,z) >= A(y,z) & A(x,y) iterated to a fixpoint."""
    hom = [[rng.randrange(q.n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        hom[i][i] = q.unit
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    v = q.join_table[hom[x][z]][q.tensor_table[hom[y][z]][hom[x][y]]]
                    if v != hom[x][z]:
                        hom[x][z] = v
                        changed = True
    return hom


# ---------------------------------------------------------------- plans

def make_plan(workload, seed):
    """The ops of one pass.  The enum ladders are fixed, so the seed
    changes nothing there; it feeds the suites' batteries and picks the
    census bases."""
    rng = random.Random(seed)
    if workload == "suites-cold":
        ops = [{"label": name} for name in SUITES]
    elif workload == "enum-sparse":
        rungs = [(k, order) for k in SPARSE_K for order in ("dL", "dR")]
        ops = [{"label": f"{order}/lukasiewicz{k}/{kind}",
                "quantale": ["lukasiewicz", k], "order": [order], "kind": kind}
               for k, order in rungs for kind in ("lower", "upper", "fc")]
    elif workload == "enum-dense":
        rungs = [(spec, n) for spec, ns in DENSE_RUNGS for n in ns]
        ops = [{"label": f"discrete{n}/{spec[0]}{spec[1]}/{kind}",
                "quantale": list(spec), "order": ["discrete", n], "kind": kind}
               for spec, n in rungs for kind in ("lower", "upper")]
    elif workload == "census":
        ops = census_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops}


def census_order(q, hom):
    from qideal.qorder import build_qorder

    labels = [f"x{i}" for i in range(len(hom))]
    return build_qorder(q, labels, [[q.elements[v] for v in row] for row in hom])


def census_ops(rng):
    from qideal.fuzzy import enumerate_monotone_sets

    lo, hi = CENSUS_WINDOW
    ops = []
    for spec, *_ in CENSUS_QUANTALES:
        q = build_quantale(spec)
        filled = 0
        while filled < CENSUS_SETS_PER_QUANTALE:
            hom = closed_hom(q, CENSUS_POINTS, rng)
            A = census_order(q, hom)
            m = len(enumerate_monotone_sets(A, "lower"))
            if lo <= m <= hi and len(enumerate_monotone_sets(A, "upper")) <= hi:
                ops.append({"label": f"census{len(ops)}/{spec[0]}{spec[1]}",
                            "quantale": list(spec), "hom": hom})
                filled += m
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- set-up

def setup(plan):
    """Build every quantale and order the plan names.  Returns one
    (call, verify) pair per op: call(traced_into) runs the op and returns
    its output, verify(output) returns (items, output digest, error)."""
    workload = plan["workload"]
    if workload == "suites-cold":
        import qideal.cli  # noqa: F401  (what each suite process imports)
        return [suite_op(op, plan["seed"]) for op in plan["ops"]]
    from qideal.qorder import standard_qorder

    specs = {tuple(op["quantale"]) for op in plan["ops"]}
    quantales = {spec: build_quantale(spec) for spec in sorted(specs)}
    ops = []
    for op in plan["ops"]:
        spec = tuple(op["quantale"])
        q = quantales[spec]
        if workload == "census":
            ops.append(census_op(census_order(q, op["hom"]), CENSUS_FLAGS[spec]))
        else:
            name, *params = op["order"]
            A = (standard_qorder(q, name, n=params[0]) if params
                 else standard_qorder(q, name))
            ops.append(enum_op(A, op["kind"]))
    return ops


CENSUS_FLAGS = {tuple(spec): flags for spec, *flags in CENSUS_QUANTALES}


def suite_op(op, seed):
    def call(traced_into=None):
        if traced_into:
            cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py"), traced_into]
        else:
            cmd = [sys.executable, "-m", "qideal.cli"]
        cmd += ["--seed", str(seed), "check", op["label"]]
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SUITE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None

    def verify(proc):
        if proc is None:
            return 1, None, f"suite ran past {SUITE_TIMEOUT_S} s"
        try:
            verdict = json.loads(proc.stdout)["verdict"]
        except (ValueError, KeyError, TypeError):
            verdict = None
        if proc.returncode != 0 or verdict != "pass":
            return 1, None, (f"exit {proc.returncode}, verdict {verdict}: "
                             + proc.stderr.strip()[-300:])
        return 1, None, None
    return call, verify


def enum_op(A, kind):
    from qideal.fuzzy import enumerate_monotone_sets
    from qideal.ideals import enumerate_ideals

    def call(traced_into=None):
        if kind == "fc":
            return enumerate_ideals(A, "fc")
        return enumerate_monotone_sets(A, kind)

    def verify(sets):
        return len(sets), digest([p.values for p in sets]), None
    return call, verify


def census_op(A, flags):
    from qideal.fuzzy import enumerate_monotone_sets
    from qideal.ideals import classify_ideal

    linear, prelinear, double_negation = flags

    def call(traced_into=None):
        return [classify_ideal(phi) for phi in enumerate_monotone_sets(A, "lower")]

    def verify(reports):
        seen = [r.flags() for r in reports]
        for inhabited, flat, irr, fc in seen:
            broken = [name for name, holds in (
                ("fc <= irr", irr or not fc),
                ("fc <= flat", flat or not fc),
                ("irr <= flat (prelinear)", flat or not irr or not prelinear),
                ("flat = irr (double negation)", flat == irr or not double_negation),
                ("irr = fc (linear)", irr == fc or not linear)) if not holds]
            if broken:
                return len(seen), None, "class theorem fails: " + ", ".join(broken)
        return len(seen), digest(seen), None
    return call, verify


# ---------------------------------------------------------------- checks

def check(plan, index, items, out, pins):
    """Why an op's output differs from what is pinned for it, or None."""
    workload, op = plan["workload"], plan["ops"][index]
    if workload == "enum-dense" and items != _candidates(op):
        return f"{items} sets, want every one of {_candidates(op)} candidates"
    if workload.startswith("enum-"):
        want = pins["enum"].get(op["label"])
        if [items, out] != want:
            return f"got {items} sets with digest {out}, pinned {want}"
    elif workload == "census" and str(plan["seed"]) in pins["census"]:
        pinned = pins["census"][str(plan["seed"])]
        want = pinned[index] if index < len(pinned) else None
        if out != want:
            return f"flag digest {out}, pinned {want}"
    return None


def _candidates(op):
    return op["quantale"][1] ** op["order"][1]


# ---------------------------------------------------------------- modes

def run_pass(plan, spans_dir):
    tracer = None
    if spans_dir and plan["workload"] != "suites-cold":
        from spans import Tracer

        tracer = Tracer().install()
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    ops = setup(plan)
    cal = [calibrate()]
    last_cal = time.perf_counter()
    wall = 0.0
    for i, (call, verify) in enumerate(ops):
        if time.perf_counter() - last_cal > CALIBRATE_EVERY_S:
            cal.append(calibrate())
            last_cal = time.perf_counter()
        start = time.perf_counter()
        try:
            output = call(spans_dir)
        except Exception as exc:  # an op that raises is a failed op
            output = exc
        secs = time.perf_counter() - start
        wall += secs
        if isinstance(output, Exception):
            items, error = 0, f"{type(output).__name__}: {output}"
        else:
            items, out, error = verify(output)
            error = error or check(plan, i, items, out, pins)
        print(json.dumps({"op": i, "s": secs, "ok": error is None,
                          "items": items, "error": error}), flush=True)
    cal.append(calibrate())
    if tracer:
        tracer.dump(spans_dir)
    who = (resource.RUSAGE_CHILDREN if plan["workload"] == "suites-cold"
           else resource.RUSAGE_SELF)
    print(json.dumps({"wall_s": wall, "cal_s": statistics.median(cal),
                      "rss_mb": resource.getrusage(who).ru_maxrss / 1024}),
          flush=True)


def make_pins():
    """Outputs of the current program for every enum op and for the census
    at the default seed.  Pin only from a commit whose verdicts are trusted."""
    census = []
    pins = {"enum": {}, "census": {str(DEFAULT_SEED): census}}
    for workload in ("enum-sparse", "enum-dense", "census"):
        plan = make_plan(workload, DEFAULT_SEED)
        for op, (call, verify) in zip(plan["ops"], setup(plan)):
            items, out, error = verify(call())
            if error is not None:
                raise SystemExit(f"{op['label']}: {error}")
            if workload == "census":
                census.append(out)
            else:
                pins["enum"][op["label"]] = [items, out]
    return pins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("plan")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("out")
    p = sub.add_parser("setup")
    p.add_argument("plan")
    p = sub.add_parser("run")
    p.add_argument("plan")
    p.add_argument("--spans", default=None)
    sub.add_parser("pins")
    args = parser.parse_args(argv)

    if args.mode == "plan":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(make_plan(args.workload, args.seed), fh)
    elif args.mode == "pins":
        json.dump(make_pins(), sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        with open(args.plan, encoding="utf-8") as fh:
            plan = json.load(fh)
        if args.mode == "setup":
            setup(plan)
        else:
            run_pass(plan, args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
