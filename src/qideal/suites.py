"""Named check suites: each ties one desk-checkable claim about ideal
classes, completions, or Scott structures to a reproducible run over
small instances.

Every suite is deterministic for fixed inputs; randomized instance
generation always starts from an explicit 64-bit seed that is echoed in
the result.  Witness payloads embed full instance dumps so a failing
run can be replayed through the loaders.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from fractions import Fraction
from functools import partial

# the suites that use scott, completion or interval import them when they
# run, so that a process running any other suite loads none of them
from ._value import Value
from .errors import BudgetExceeded, DecompositionMismatch, GridTooCoarse, UnknownSuite, _charge
from .fuzzy import FuzzySet, _inhabited, _sub_idx, _walk, fuzzy_set, transport
from .ideals import _principal_rows, classify_ideal, enumerate_ideals, ideal_class_tag
from .io import dump_instance, jsonable
from .qorder import QOrderedSet, all_qmaps, crisp_qorder, random_qorder, standard_qorder
from .quantale import (
    boolean4,
    chain_quantale,
    godel_chain,
    lukasiewicz_chain,
    nilpotent_minimum_chain,
    quantale_properties,
)

DEFAULT_SEED = 20260819


class SuiteResult(Value, fields="name instances verdict witnesses elapsed details"):
    def __init__(self, name, instances, verdict, witnesses, elapsed, details=None):
        self.name, self.instances, self.verdict, self.witnesses, self.elapsed = \
            name, instances, verdict, witnesses, elapsed
        self.details = {} if details is None else details

    def to_json(self):
        return {"suite": self.name, "verdict": self.verdict,
                "instances": list(self.instances),
                "witnesses": jsonable(self.witnesses),
                "details": jsonable(self.details),
                "elapsed": round(self.elapsed, 3)}

    def summary(self):
        lines = [f"{self.name}: {self.verdict.upper()} "
                 f"({len(self.instances)} instances, {self.elapsed:.2f} s)"]
        for k, v in self.details.items():
            lines.append(f"  {k}: {jsonable(v)}")
        for w in self.witnesses[:3]:
            lines.append(f"  witness: {jsonable(w)}")
        if len(self.witnesses) > 3:
            lines.append(f"  ... {len(self.witnesses) - 3} more witnesses")
        return "\n".join(lines)


def _qorder_layers(q, labels, budget, separated):
    """The Q-orders on labels[:k], k = 1..len(labels), one layer each in
    lexicographic order of the hom; with separated, no two points are
    isomorphic.  An order B of layer k grows a point p by a lower set
    a = A(-, p) and an upper set b = A(p, -) of B with a(x) & b(z) <=
    B(x, z), that is b(z) <= sub(a, B(-, z)).  A running count charges k
    hom entries per pair tried and (k+1)^2 per order kept, before each."""
    unit, leq = q.unit, q.leq
    layers, done = [(QOrderedSet(q, labels[:1], ((unit,),)),)], 0
    for k in range(1, len(labels)):
        grown = []
        for B in layers[-1]:
            (lowers, _), (uppers, _) = _walk(B, "lower", budget), _walk(B, "upper", budget)
            done += k * len(lowers) * len(uppers)
            _charge(done, budget, "hom entries tried and written", partial=True)
            for a in lowers:
                bound = [_sub_idx(B, a, col) for col in zip(*B.hom)]
                for b in uppers:
                    if all(leq[v][w] for v, w in zip(b, bound)) and not (
                            separated and any(u == v == unit for u, v in zip(a, b))):
                        done += (k + 1) ** 2
                        _charge(done, budget, "hom entries tried and written", partial=True)
                        hom = (*map(tuple.__add__, B.hom, zip(a)), b + (unit,))
                        grown.append(QOrderedSet(q, labels[:k + 1], hom))
        layers.append(tuple(sorted(grown, key=lambda A: A.hom)))
    return layers


def _battery(seed, budget):
    """The class-comparison bases: every two-point Q-order over the trio
    (41 bases), then seeded random three-point ones without end."""
    trio = ((boolean4(), "boolean4"), (lukasiewicz_chain(3), "lukasiewicz-3"),
            (godel_chain(4), "godel-4"))
    for q, qd in trio:
        lab = q.elements.__getitem__
        for A in _qorder_layers(q, ("x0", "x1"), budget, separated=False)[-1]:
            yield f"2-point({lab(A.hom[0][1])},{lab(A.hom[1][0])}) over {qd}", A
    rng = random.Random(seed)
    for k in itertools.count():
        q, qd = trio[k % len(trio)]
        yield f"seeded-3pt#{k} over {qd}", random_qorder(q, 3, rng)


def _full_battery(seed, budget):
    """The two-point bases and the first 50 seeded ones."""
    return tuple(itertools.islice(_battery(seed, budget), 41 + 50))


# the flags of an IdealReport, without its witnesses
_Flags = namedtuple("_Flags", "inhabited flat irreducible forward_cauchy")


def _census(A, budget):
    """Every lower set of A with its _Flags, built on each call.  The
    flags come from the class enumerations, the forward-Cauchy one from
    the principal rows, so no witness is built; _ideal_witness builds
    one for a reported ideal."""
    lowers = enumerate_ideals(A, "lower", budget=budget)
    flat, irr = ({p.values for p in enumerate_ideals(A, tag, budget=budget)}
                 for tag in ("flat", "irr"))
    fc = set(_principal_rows(A))
    return tuple((phi, _Flags(_inhabited(A, phi.values), phi.values in flat,
                              phi.values in irr, phi.values in fc))
                 for phi in lowers)


def _int_param(params, name, default):
    """params[name], or default; a value that is not an int (a bool is
    not) is refused naming the parameter."""
    value = params.get(name, default)
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _saturation_battery():
    out = []
    for q, qd in ((lukasiewicz_chain(2), "lukasiewicz-2"),
                  (lukasiewicz_chain(3), "lukasiewicz-3")):
        out.append((f"discrete-2 over {qd}", standard_qorder(q, "discrete", n=2)))
        out.append((f"chain-2 over {qd}",
                    crisp_qorder(q, ("x0", "x1"), ((True, True), (False, True)))))
    return tuple(out)


def _crisp_posets(max_points, budget):
    """Every labeled partial order on 1..max_points points as a Q-order
    over the two-element chain, with the line that names them."""
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    layers = _qorder_layers(godel_chain(2), tuple(f"p{i}" for i in range(max_points)), budget,
                            separated=True)
    posets = tuple(itertools.chain.from_iterable(layers))
    return (f"all crisp posets on <= {max_points} points over the 2-chain "
            f"({len(posets)} posets)"), posets


def _leq(P):
    """The crisp order of a poset from _crisp_posets, as a bool matrix."""
    unit = P.quantale.unit
    return tuple(tuple(v == unit for v in row) for row in P.hom)


def _flags(rep):
    return _Flags(*rep.flags())._asdict()


def _ideal_witness(desc, phi, reason, budget):
    """A reported ideal with its flags and their witnesses."""
    rep = classify_ideal(phi, budget=budget)
    return {"instance": desc, "reason": reason,
            "ideal": dump_instance(phi), "flags": _flags(rep),
            "witnesses": rep.witnesses}


def _inclusion_suite(keep_base, offend, reason, params, seed, budget, tolerance):
    instances, witnesses = [], []
    ideals = 0
    battery = _full_battery(seed, budget)
    kept = {q: keep_base(q) for q in {A.quantale for _, A in battery}}
    for desc, A in battery:
        if not kept[A.quantale]:
            continue
        instances.append(desc)
        for phi, flags in _census(A, budget):
            ideals += 1
            if offend(flags):
                witnesses.append(_ideal_witness(desc, phi, reason, budget))
    return instances, witnesses, {"ideals_checked": ideals, "seed": seed}


# name -> (the quantales whose bases it covers, the ideal reports that
# break its claim, the reason a breaking ideal is reported with)
_INCLUSION_SUITES = {
    "FC_SUBSET_IRR": (
        lambda q: True, lambda r: r.forward_cauchy and not r.irreducible,
        "forward Cauchy ideal that is not irreducible"),
    "FC_SUBSET_FLAT": (
        lambda q: True, lambda r: r.forward_cauchy and not r.flat,
        "forward Cauchy ideal that is not flat"),
    "IRR_SUBSET_FLAT_PRELINEAR": (
        lambda q: quantale_properties(q).is_prelinear,
        lambda r: r.irreducible and not r.flat,
        "irreducible ideal that is not flat on a prelinear instance"),
    "FLAT_EQ_IRR_DOUBLENEG": (
        lambda q: q.has_double_negation,
        lambda r: r.flat != r.irreducible,
        "flat and irreducible disagree under double negation"),
    "LINEAR_IRR_EQ_FC": (
        lambda q: q.is_linear, lambda r: r.irreducible != r.forward_cauchy,
        "irreducible and forward Cauchy disagree on a linear quantale"),
}


def _suite_boolean4_counterexample(params, seed, budget, tolerance):
    q = boolean4()
    A = standard_qorder(q, "discrete", n=2)
    phi = fuzzy_set(A, {"x0": "a", "x1": "b"})
    rep = classify_ideal(phi, budget=budget)
    expected = (True, True, True, False)
    witnesses = []
    if rep.flags() != expected:
        witnesses.append(_ideal_witness("discrete-2 over boolean4", phi,
                                        f"expected flags {expected}", budget))
    details = {"flags": _flags(rep),
               "forward_cauchy_witness": rep.witnesses.get("forward_cauchy")}
    return ["discrete-2 over boolean4"], witnesses, details


def _suite_godel_flat_not_irr(params, seed, budget, tolerance):
    n = _int_param(params, "n", 5)
    b = Fraction(str(params.get("b", "1/2")))
    a = Fraction(str(params.get("a", "1/4")))
    _charge(n ** 3, budget, "quantale law checks")
    q = godel_chain(n)
    A = standard_qorder(q, "dL")
    bi, ai = q.index(b), q.index(a)
    vals = tuple(q.join(bi, q.residuate(x, ai)) for x in range(q.n))
    phi = FuzzySet(A, vals)
    rep = classify_ideal(phi, budget=budget)
    witnesses = []
    if not (rep.flat and not rep.irreducible and not rep.forward_cauchy):
        witnesses.append(_ideal_witness(
            f"dL over godel-{n}", phi,
            "expected flat, not irreducible, not forward Cauchy", budget))
    details = {"n": n, "b": str(b), "a": str(a),
               "irreducible_witness": rep.witnesses.get("irreducible"),
               "forward_cauchy_witness": rep.witnesses.get("forward_cauchy")}
    return [f"dL over godel-{n} with b={b}, a={a}"], witnesses, details


def _suite_cor312_families(params, seed, budget, tolerance):
    from .interval import (_grid, approach_terms, classify_sampled, generate_interval_ideal,
                           interval_order, interval_quantale, irreducible_interval_ideal)

    grid = _int_param(params, "grid", 257)
    family_at = (0.0, 0.25, 0.5, 1.0)
    # each member, over two quantales and two orders: two scans of the
    # grid and a shape check of 65 points and their pairs
    _charge(2 * 2 * len(family_at) * (2 * grid + 65 * 66), budget,
            "grid points and pairs scanned")
    pts = _grid(grid, 17)
    interval = [interval_quantale(tnorm, tolerance=tolerance)
                for tnorm in ("lukasiewicz", "product")]
    tol = interval[0].tolerance
    instances, witnesses = [], []
    checked = 0

    for tnorm, n in (("lukasiewicz", 4), ("godel", 4), ("nilpotent_minimum", 4)):
        q = chain_quantale(tnorm, n)
        for which in ("dL", "dR"):
            desc = f"{which} over {tnorm}-{n}"
            instances.append(desc)
            A = standard_qorder(q, which)
            irr = {p.values for p in enumerate_ideals(A, "irr", budget=budget)}
            prin = set(_principal_rows(A))
            checked += 1
            if irr != prin:
                witnesses.append({
                    "instance": desc,
                    "reason": "irreducible ideals do not match the "
                              "principal family on a finite chain",
                    "extra": [FuzzySet(A, v).as_dict() for v in sorted(irr ^ prin)]})

    for q in interval:
        for which in ("dL", "dR"):
            order = interval_order(q, which)
            for a in family_at:
                desc = f"{which} over unit-interval {q.tnorm}, a={a}"
                instances.append(desc)
                plain = irreducible_interval_ideal(q, which, a)
                gen = generate_interval_ideal(order, [a])
                checked += 1
                worst = max(abs(plain(x) - gen(x)) for x in pts)
                if worst > tol:
                    witnesses.append({"instance": desc, "reason":
                                      "constant-sequence generation misses "
                                      "the plain family member",
                                      "deviation": worst})
                shape = classify_sampled(order, gen, grid=65)
                if not (shape["lower"] and shape["inhabited"]):
                    witnesses.append({"instance": desc, "reason":
                                      "generated member is not an inhabited "
                                      "lower set on the sample",
                                      "shape": shape})
                strictable = (which == "dL" and a > 0) or (which == "dR" and a < 1)
                if strictable:
                    side = "below" if which == "dL" else "above"
                    strict = irreducible_interval_ideal(q, which, a, strict=True)
                    gen2 = generate_interval_ideal(order, approach_terms(a, side))
                    checked += 1
                    worst = max(abs(strict(x) - gen2(x)) for x in pts)
                    if worst > tol:
                        witnesses.append({"instance": desc + " (strict)",
                                          "reason": "approach-sequence "
                                          "generation misses the strict member",
                                          "deviation": worst})
    return instances, witnesses, {"members_checked": checked,
                                  "grid": grid, "tolerance": tol}


def _saturation_suite(tag, params, seed, budget, tolerance):
    from .completion import check_saturation

    instances, witnesses = [], []
    weights = 0
    for desc, A in _saturation_battery():
        instances.append(desc)
        rep = check_saturation(A, tag, budget=budget)
        weights += rep["weights_checked"]
        if not rep["saturated"]:
            witnesses.append({"instance": desc, "violations": rep["violations"]})
    return instances, witnesses, {"weights_checked": weights}


def _suite_thm42_free(params, seed, budget, tolerance):
    from .completion import check_completeness_continuity, ideal_space

    instances, witnesses = [], []
    members = 0
    for desc, A in _saturation_battery():
        instances.append(desc)
        S1 = ideal_space(A, "flat", budget=budget)
        rep = check_completeness_continuity(S1.space, "flat", budget=budget)
        if not (rep["complete"] and rep["continuous"]):
            witnesses.append({"instance": desc,
                              "reason": "ideal space is not complete and "
                              "continuous for its own class",
                              "witnesses": rep["witnesses"]})
            continue
        S2 = rep["space"]
        adjoint = rep["adjoint"]
        members += S1.n
        for i, member in enumerate(S1.carrier):
            expected = transport(S1.yoneda_map, member, "forward").values
            got = S2.carrier[adjoint.mapping[i]].values
            if got != expected:
                witnesses.append({
                    "instance": desc,
                    "reason": "searched left adjoint differs from the "
                              "transported embedding",
                    "member": S1.space.elements[i]})
                break
        sup = rep["sup"]
        for j, lam in enumerate(S2.carrier):
            label = sup[S2.space.elements[j]]
            back = transport(S1.yoneda_map, lam, "backward").values
            if S1.carrier[S1.space.index(label)].values != back:
                witnesses.append({
                    "instance": desc,
                    "reason": "supremum in the ideal space differs from "
                              "composition with the embedding",
                    "member": S2.space.elements[j]})
                break
    return instances, witnesses, {"level_one_members": members}


_SCOTT_PHASES = ("axioms", "classical", "duality")


def _suite_scott_axioms(params, seed, budget, tolerance):
    from .scott import generate_scott_structure

    phases = params.get("phases", _SCOTT_PHASES)
    if not isinstance(phases, (list, tuple)):
        phases = [p.strip() for p in str(phases).split(",") if p.strip()]
    unknown = [p for p in phases if p not in _SCOTT_PHASES]
    if unknown:
        raise ValueError(f"unknown SCOTT_AXIOMS phases {unknown}; "
                         f"the phases are {', '.join(_SCOTT_PHASES)}")
    instances, witnesses = [], []
    details = {"seed": seed}

    if "axioms" in phases:
        strong_t = strong_c = 0
        bases = _full_battery(seed, budget)
        for desc, A in bases:
            instances.append(desc)
            St = generate_scott_structure(A, "topology", which="flat",
                                          budget=budget)
            Sc = generate_scott_structure(A, "cotopology", which="irr",
                                          budget=budget)
            for axiom in ("O1", "O2", "O3", "O4"):
                if not St.axioms[axiom]:
                    witnesses.append({"instance": desc, "axiom": axiom,
                                      "mode": "topology"})
            for axiom in ("C1", "C2", "C3", "C4"):
                if not Sc.axioms[axiom]:
                    witnesses.append({"instance": desc, "axiom": axiom,
                                      "mode": "cotopology"})
            strong_t += St.strong
            strong_c += Sc.strong
        details["axioms_bases"] = len(bases)
        details["strong_topologies"] = strong_t
        details["strong_cotopologies"] = strong_c

    if "classical" in phases:
        line, posets = _crisp_posets(_int_param(params, "max_points", 4), budget)
        mismatches = 0
        for P in posets:
            n, leq = P.n, _leq(P)
            unit, bot = P.quantale.unit, P.quantale.bottom
            St = generate_scott_structure(P, "topology", which="flat",
                                          budget=budget)
            Sc = generate_scott_structure(P, "cotopology", which="irr",
                                          budget=budget)
            uppers = set()
            lowers = set()
            for bits in itertools.product((False, True), repeat=n):
                if all(not (bits[i] and leq[i][j]) or bits[j]
                       for i in range(n) for j in range(n)):
                    uppers.add(tuple(unit if b else bot for b in bits))
                if all(not (bits[j] and leq[i][j]) or bits[i]
                       for i in range(n) for j in range(n)):
                    lowers.add(tuple(unit if b else bot for b in bits))
            got_t = {m.values for m in St.members}
            got_c = {m.values for m in Sc.members}
            if got_t != uppers or got_c != lowers:
                mismatches += 1
                witnesses.append({
                    "instance": f"crisp poset on {n} points",
                    "leq": [list(r) for r in leq],
                    "reason": "generated structure differs from the "
                              "classical one",
                    "open_difference": sorted(got_t ^ uppers),
                    "closed_difference": sorted(got_c ^ lowers)})
        instances.append(line)
        details["classical_posets"] = len(posets)
        details["classical_mismatches"] = mismatches

    if "duality" in phases:
        duality_bases = 0
        for q, qd in ((boolean4(), "boolean4"),
                      (nilpotent_minimum_chain(3), "nilpotent-minimum-3"),
                      (nilpotent_minimum_chain(4), "nilpotent-minimum-4"),
                      (nilpotent_minimum_chain(5), "nilpotent-minimum-5")):
            bases = (*_qorder_layers(q, ("x0", "x1"), budget, separated=False)[-1],
                     standard_qorder(q, "dL"))
            for k, A in enumerate(bases):
                desc = (f"duality base#{k} over {qd}")
                St = generate_scott_structure(A, "topology", which="irr",
                                              budget=budget)
                Sc = generate_scott_structure(A, "cotopology", which="irr",
                                              budget=budget)
                negged = {tuple(q.neg_vector[v] for v in m.values)
                          for m in St.members}
                if negged != {m.values for m in Sc.members}:
                    witnesses.append({"instance": desc, "reason":
                                      "negated topology differs from the "
                                      "cotopology"})
                duality_bases += 1
            instances.append(f"duality battery over {qd} "
                             f"({len(bases)} bases)")
        details["duality_bases"] = duality_bases
    return instances, witnesses, details


def _suite_prop57_equiv(params, seed, budget, tolerance):
    from .scott import check_open_preimages, cocontinuity_equivalence

    q = lukasiewicz_chain(3)
    A = crisp_qorder(q, ("p0", "p1", "p2"),
                     tuple(tuple(i <= j for j in range(3)) for i in range(3)))
    B = standard_qorder(q, "dL")
    instances = ["crisp 3-chain over lukasiewicz-3", "dL over lukasiewicz-3"]
    witnesses = []
    maps = cocontinuous = 0
    for src, dst in ((A, B), (B, A)):
        for f in all_qmaps(src, dst):
            maps += 1
            rep = cocontinuity_equivalence(f, "irreducible", budget=budget)
            if not rep["agree"]:
                witnesses.append({"mapping": list(f.mapping),
                                  "report": rep})
                continue
            if rep["cocontinuous"]:
                cocontinuous += 1
                ok, w = check_open_preimages(f, "flat", budget=budget)
                if not ok:
                    witnesses.append({"mapping": list(f.mapping),
                                      "reason": "open set pulled back to a "
                                      "non-open set along a cocontinuous map",
                                      "witness": w})
    return instances, witnesses, {"maps_checked": maps,
                                  "cocontinuous_maps": cocontinuous}


def _suite_ex58_characterization(params, seed, budget, tolerance):
    from .interval import interval_dR_scott_closed, interval_quantale

    tnorm = params.get("tnorm", "lukasiewicz")
    grid = _int_param(params, "grid", 257)
    q = interval_quantale(tnorm, tolerance=tolerance)
    cases = (
        ("identity", lambda x: x, True),
        ("min(1, x+1/4)", lambda x: min(1.0, x + 0.25), True),
        ("left-continuous step at 1/2", lambda x: 0.0 if x <= 0.5 else 1.0, False),
        ("tent map (not order preserving)", lambda x: 0.6 - abs(x - 0.5), False),
    )
    # each case: the pairs of grid points, its values and its right-continuity probes
    _charge(len(cases) * grid * (grid + 2), budget, "grid points and pairs scanned")
    instances, witnesses = [], []
    reports = {}
    for desc, fn, expect in cases:
        instances.append(f"{desc} over unit-interval {tnorm}")
        rep = interval_dR_scott_closed(fn, q, grid=grid)
        reports[desc] = {"scott_closed": rep["scott_closed"],
                         "right_continuous": rep["right_continuous"],
                         "order_preserving": rep["order_preserving"]}
        if rep["scott_closed"] != expect:
            witnesses.append({"case": desc, "expected": expect, "report": rep})
    return instances, witnesses, {"grid": grid, "cases": reports}


def _suite_ex510_generation(params, seed, budget, tolerance):
    from .interval import interval_quantale, verify_ordinal_sum_generation

    grid = _int_param(params, "grid", 257)
    shift = float(Fraction(str(params.get("shift", "1/4"))))
    if shift < 0:
        # min(1, x + shift) must lie above the identity
        raise ValueError(f"shift must be at least 0, got {params['shift']}")
    q = interval_quantale(params.get("tnorm", "lukasiewicz"), tolerance=tolerance)
    fn = lambda x: min(1.0, x + shift)
    # two generations on the grid, each with at most two pieces: its
    # closedness and family scans visit fewer than 2 * grid * (grid + 6)
    # points and pairs, and five family members are checked on 65 points
    _charge(2 * (2 * grid * (grid + 6) + 5 * 65 * 66), budget, "grid points and pairs scanned")
    instances = [f"min(1, x+{shift}) over unit-interval {q.tnorm}, grid {grid}"]
    witnesses = []
    rep = verify_ordinal_sum_generation(fn, q, grid=grid)
    details = {"max_deviation": rep["max_deviation"],
               "deviation_at": rep["deviation_at"],
               "members_closed_on_grid": rep["members_closed_on_grid"],
               "tolerance": q.tolerance}
    if rep["max_deviation"] > q.tolerance or not rep["members_closed_on_grid"]:
        witnesses.append({"instance": instances[0],
                          "max_deviation": rep["max_deviation"],
                          "at": rep["deviation_at"]})
    try:
        verify_ordinal_sum_generation(
            fn, interval_quantale("nilpotent_minimum", tolerance=tolerance), grid=65)
        witnesses.append({"instance": "nilpotent minimum",
                          "reason": "a tensor without the required "
                          "decomposition was accepted"})
    except DecompositionMismatch as e:
        details["nilpotent_minimum"] = f"rejected: {e}"
    osum = interval_quantale(
        "ordinal_sum", pieces=((0.0, 0.5, "lukasiewicz"), (0.5, 1.0, "product")),
        tolerance=tolerance)
    rep2 = verify_ordinal_sum_generation(lambda x: min(1.0, x + 0.125), osum,
                                         grid=grid)
    details["ordinal_sum_deviation"] = rep2["max_deviation"]
    if rep2["max_deviation"] > 1e-6:
        witnesses.append({"instance": "ordinal sum spot check",
                          "max_deviation": rep2["max_deviation"]})
    return instances, witnesses, details


def _suite_classical_degeneration(params, seed, budget, tolerance):
    line, posets = _crisp_posets(_int_param(params, "max_points", 4), budget)
    witnesses = []
    ideals = 0
    for P in posets:
        n, leq = P.n, _leq(P)
        for phi, flags in _census(P, budget):
            ideals += 1
            S = [i for i in range(n) if phi.values[i] == P.quantale.unit]
            directed = bool(S) and all(
                any(leq[x][z] and leq[y][z] for z in S)
                for x in S for y in S)
            if not (flags.flat == flags.irreducible == flags.forward_cauchy == directed):
                witnesses.append(_ideal_witness(
                    f"crisp poset on {n} points (leq {leq})", phi,
                    "class verdicts differ from the classical "
                    f"directed-lower-set test ({directed})", budget))
    return [line], witnesses, {"posets": len(posets), "ideals_checked": ideals}


# name -> (the suite, the names of the parameters it reads)
_REGISTRY = {
    **{name: (partial(_inclusion_suite, *row), ())
       for name, row in _INCLUSION_SUITES.items()},
    "BOOLEAN4_COUNTEREXAMPLE": (_suite_boolean4_counterexample, ()),
    "GODEL_FLAT_NOT_IRR": (_suite_godel_flat_not_irr, ("n", "b", "a")),
    "COR312_FAMILIES": (_suite_cor312_families, ("grid",)),
    **{f"SATURATION_{tag.upper()}": (partial(_saturation_suite, tag), ())
       for tag in ("fc", "flat", "irr")},
    "THM42_FREE": (_suite_thm42_free, ()),
    "SCOTT_AXIOMS": (_suite_scott_axioms, ("phases", "max_points")),
    "PROP57_EQUIV": (_suite_prop57_equiv, ()),
    "EX58_CHARACTERIZATION": (_suite_ex58_characterization, ("tnorm", "grid")),
    "EX510_GENERATION": (_suite_ex510_generation, ("grid", "shift", "tnorm")),
    "CLASSICAL_DEGENERATION": (_suite_classical_degeneration, ("max_points",)),
}


def suite_names():
    return tuple(_REGISTRY)


def run_suite(name, seed=None, budget=None, tolerance=None, **params):
    """Execute one named suite and return its SuiteResult.  Verdicts:
    pass, fail (claim violated, witnesses attached), budget (enumeration
    gave up, or a grid parameter was too coarse to sample).  A parameter
    the suite does not read, and a run that checks no instance, are
    refused with ValueError."""
    key = str(name).upper().replace("-", "_")
    if key not in _REGISTRY:
        raise UnknownSuite(name, suite_names())
    suite, known = _REGISTRY[key]
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(f"{key} reads no parameter {', '.join(unknown)}; "
                         f"its parameters are {', '.join(known) or 'none'}")
    seed = DEFAULT_SEED if seed is None else int(seed) & (2 ** 64 - 1)
    start = time.perf_counter()
    try:
        instances, witnesses, details = suite(params, seed, budget, tolerance)
    except (BudgetExceeded, GridTooCoarse) as e:
        return SuiteResult(key, [], "budget", [{"budget": str(e)}],
                           time.perf_counter() - start, {"seed": seed})
    if not instances:
        raise ValueError(f"{key} checked no instances with parameters {params}")
    return SuiteResult(key, instances, "fail" if witnesses else "pass", witnesses,
                       time.perf_counter() - start, details)


_FLAG_FIELDS = {"fc": "forward_cauchy", "flat": "flat",
                "irreducible": "irreducible"}


def search_counterexample(shape, seed=None, budget=None, limit=200):
    """Look for an ideal in class X that misses class Y, shape "X-not-Y"
    with two different classes named fc, flat, irr, in the first limit
    bases of the class-comparison battery: the exhaustive 2-point
    instances over the standard quantale trio, then seeded random
    3-point instances.
    Returns a report dict either way."""
    try:
        have_tag, want_tag = [ideal_class_tag(part)
                              for part in str(shape).lower().split("-not-")]
    except (ValueError, KeyError):
        raise ValueError(
            f"shape {shape!r} is not of the form <class>-not-<class> "
            "with classes fc, flat, irr") from None
    if "lower" in (have_tag, want_tag):
        raise ValueError("search wants one of the proper classes: fc, flat, irr")
    if have_tag == want_tag:
        raise ValueError(f"shape {shape!r} names one class twice; "
                         "no ideal is in a class and misses it")
    if limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    seed = DEFAULT_SEED if seed is None else int(seed) & (2 ** 64 - 1)
    have_f, want_f = _FLAG_FIELDS[have_tag], _FLAG_FIELDS[want_tag]
    checked = {"instances": 0, "ideals": 0}
    for desc, A in itertools.islice(_battery(seed, budget), limit):
        checked["instances"] += 1
        for phi, flags in _census(A, budget):
            checked["ideals"] += 1
            if getattr(flags, have_f) and not getattr(flags, want_f):
                rep = classify_ideal(phi, budget=budget)
                return {"found": True, "shape": f"{have_tag}-not-{want_tag}",
                        "instance": desc, "seed": seed,
                        "ideal": dump_instance(phi), "flags": _flags(rep),
                        "witnesses": jsonable(rep.witnesses),
                        "checked": checked}
    return {"found": False, "shape": f"{have_tag}-not-{want_tag}",
            "seed": seed, "checked": checked}
