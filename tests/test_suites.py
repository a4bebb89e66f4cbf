"""The named check suites: verdicts, determinism, the counterexample search."""

import json
from pathlib import Path

import pytest

from qideal import ideals, suites
from qideal.errors import UnknownSuite
from qideal.ideals import classify_ideal
from qideal.io import load_instance
from qideal.qorder import standard_qorder
from qideal.quantale import lukasiewicz_chain, nilpotent_minimum_chain
from qideal.suites import (
    DEFAULT_SEED,
    run_suite,
    search_counterexample,
    suite_names,
)

ALL_SUITES = suite_names()
# every suite's report at the default seed and budget, less its elapsed time
REPORTS = json.loads((Path(__file__).parent / "data" / "suite_reports.json")
                     .read_text(encoding="utf-8"))
# the found reports of two searches at the default seed, witnesses included
SEARCHES = json.loads((Path(__file__).parent / "data" / "search_reports.json")
                      .read_text(encoding="utf-8"))


def test_registry_shape():
    assert len(ALL_SUITES) == 17
    assert len(set(ALL_SUITES)) == 17
    assert all(name == name.upper() for name in ALL_SUITES)


@pytest.mark.parametrize("name", ALL_SUITES)
def test_every_suite_passes(name):
    res = run_suite(name)
    assert res.verdict == "pass", res.summary()
    assert res.witnesses == []
    assert res.instances
    report = res.to_json()
    report.pop("elapsed")
    assert json.loads(json.dumps(report)) == REPORTS[name]


def test_godel_witness_is_the_first_break_of_the_fold():
    w = run_suite("GODEL_FLAT_NOT_IRR").to_json()["details"]["irreducible_witness"]
    assert w == {
        "phi1": {"0": "1", "1/4": "1/2", "1/2": "1/2", "3/4": "1/2", "1": "1/2"},
        "phi2": {"0": "1", "1/4": "1", "1/2": "1/4", "3/4": "1/4", "1": "1/4"},
        "sub_of_join": "1", "join_of_subs": "1/2"}


def test_an_inclusion_suite_reads_each_quantale_once(monkeypatch):
    """The property filter runs once per quantale of the battery (three),
    not once per base (91)."""
    seen = []
    properties = suites.quantale_properties
    monkeypatch.setattr(suites, "quantale_properties", lambda q: seen.append(q) or properties(q))
    assert run_suite("IRR_SUBSET_FLAT_PRELINEAR").verdict == "pass"
    assert len(seen) == 3


@pytest.mark.parametrize("which", ["dL", "dR"])
@pytest.mark.parametrize("q, inhabited", [(lukasiewicz_chain(4), 8),
                                          (nilpotent_minimum_chain(4), 7)],
                         ids=["lukasiewicz-4", "nilpotent-minimum-4"])
def test_the_census_decides_every_inhabited_lower_set(monkeypatch, q, which, inhabited):
    """The census flags flat and irreducible by deciding each inhabited
    lower set, once per class, even where a theorem makes both classes
    the principal ideals: the inclusion suites check those theorems
    through it, and flags read off the hom table would pass them
    unchecked."""
    A = standard_qorder(q, which)
    calls = []
    scan = ideals._first_break
    monkeypatch.setattr(ideals, "_first_break",
                        lambda A, kind, vals: calls.append(kind) or scan(A, kind, vals))
    census = suites._census(A, None)
    assert sum(flags.inhabited for _, flags in census) == inhabited
    assert sorted(calls) == ["lower"] * inhabited + ["upper"] * inhabited


def test_results_are_deterministic():
    a = run_suite("FC_SUBSET_IRR", seed=7).to_json()
    b = run_suite("FC_SUBSET_IRR", seed=7).to_json()
    a.pop("elapsed"), b.pop("elapsed")
    assert a == b
    # a different seed still passes, over a different random battery
    assert run_suite("FC_SUBSET_IRR", seed=8).verdict == "pass"


def test_suite_names_are_forgiving():
    res = run_suite("boolean4-counterexample")
    assert res.name == "BOOLEAN4_COUNTEREXAMPLE"
    assert res.verdict == "pass"


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("HYPERCUBE_DUALITY")


def test_parameter_plumbing():
    res = run_suite("COR312_FAMILIES", grid=129)
    assert res.verdict == "pass"
    res = run_suite("SCOTT_AXIOMS", phases="duality")
    assert res.verdict == "pass"
    assert "duality_bases" in res.details or res.instances


def test_budget_verdict():
    res = run_suite("FC_SUBSET_IRR", budget=1)
    assert res.verdict == "budget"
    assert res.witnesses and "budget" in res.witnesses[0]


def test_poset_layers_charge_the_hom_entries_they_try_and_write():
    # up to 4 points: 4, 34 and 526 pairs (a, b) tried at 1, 2 and 3
    # entries each, and 3, 19 and 219 tables kept at 4, 9 and 16 each
    assert run_suite("CLASSICAL_DEGENERATION", budget=5337).verdict == "pass"
    res = run_suite("CLASSICAL_DEGENERATION", budget=5336)
    assert res.witnesses == [
        {"budget": "5337 hom entries tried and written exceed the budget of 5336"
                   " (a lower bound: the work stopped part-way)"}]
    # the 6-point layer needs 7,644,682: refused part-way through it
    res = run_suite("CLASSICAL_DEGENERATION", max_points=6)
    assert res.verdict == "budget"
    assert "hom entries tried and written" in res.witnesses[0]["budget"]
    assert "a lower bound" in res.witnesses[0]["budget"]


@pytest.mark.parametrize("name, params", [
    ("SCOTT_AXIOMS", {"phases": "axiom"}),
    ("SCOTT_AXIOMS", {"phases": 3}),
    ("SCOTT_AXIOMS", {"phases": ""}),
    ("SCOTT_AXIOMS", {"phases": "classical", "max_points": 0}),
    ("CLASSICAL_DEGENERATION", {"max_points": 0}),
])
def test_a_run_that_checks_nothing_is_refused(name, params):
    with pytest.raises(ValueError):
        run_suite(name, **params)


@pytest.mark.parametrize("name, params, allowed", [
    ("COR312_FAMILIES", {"gird": 5}, "grid"),
    ("SCOTT_AXIOMS", {"phases": "duality", "max_point": 3}, "phases, max_points"),
    ("FC_SUBSET_IRR", {"grid": 129}, "none"),
])
def test_a_parameter_the_suite_does_not_read_is_refused(name, params, allowed):
    with pytest.raises(ValueError, match=f"its parameters are {allowed}$"):
        run_suite(name, **params)


@pytest.mark.parametrize("name, param, value", [
    ("GODEL_FLAT_NOT_IRR", "n", 5.7),
    ("COR312_FAMILIES", "grid", 17.9),
    ("EX58_CHARACTERIZATION", "grid", 65.0),
    ("EX510_GENERATION", "grid", "65"),
    ("CLASSICAL_DEGENERATION", "max_points", True),
    ("SCOTT_AXIOMS", "max_points", 3.0),
])
def test_an_integer_parameter_that_is_no_int_is_refused(name, param, value):
    """Nothing is truncated or parsed: 5.7 is no Gödel-5 and True no
    one-point poset."""
    with pytest.raises(ValueError, match=f"^{param} must be an integer, got {value!r}$"):
        run_suite(name, **{param: value})


def test_summary_mentions_verdict_and_counts():
    res = run_suite("BOOLEAN4_COUNTEREXAMPLE")
    text = res.summary()
    assert "PASS" in text and "instances" in text


def test_search_finds_flat_not_fc():
    rep = search_counterexample("flat-not-fc")
    assert rep["found"], rep
    assert rep["flags"]["flat"] and not rep["flags"]["forward_cauchy"]
    # the dumped ideal reloads and reproduces the separation
    phi = load_instance(rep["ideal"])
    again = classify_ideal(phi)
    assert again.flat and not again.forward_cauchy


def test_search_finds_flat_not_irreducible():
    rep = search_counterexample("flat-not-irr")
    assert rep["found"], rep
    phi = load_instance(rep["ideal"])
    again = classify_ideal(phi)
    assert again.flat and not again.irreducible


@pytest.mark.parametrize("shape", sorted(SEARCHES))
def test_search_reports_are_pinned(shape):
    """The census keeps flags only; the reported ideal's witnesses are
    built for it alone and match the pinned bytes."""
    assert json.loads(json.dumps(search_counterexample(shape))) == SEARCHES[shape]


def test_search_exhausts_without_a_hit():
    # pointwise witnesses always certify flatness too
    rep = search_counterexample("fc-not-flat", limit=40)
    assert not rep["found"]
    assert rep["checked"]["instances"] == 40
    assert rep["checked"]["ideals"] > 0


def test_search_scans_the_suites_battery():
    rep = search_counterexample("fc-not-flat", limit=91)
    suite = run_suite("FC_SUBSET_FLAT")
    assert rep["checked"]["ideals"] == suite.details["ideals_checked"] == 930


def test_search_honours_its_limit():
    rep = search_counterexample("fc-not-flat", limit=0)
    assert rep["checked"] == {"instances": 0, "ideals": 0}
    assert search_counterexample("fc-not-flat", limit=1)["checked"]["instances"] == 1
    with pytest.raises(ValueError):
        search_counterexample("fc-not-flat", limit=-1)


def test_search_is_seeded():
    a = search_counterexample("flat-not-fc", seed=11)
    b = search_counterexample("flat-not-fc", seed=11)
    assert a == b
    assert a["seed"] == 11
    assert search_counterexample("flat-not-fc")["seed"] == DEFAULT_SEED


def test_search_shape_grammar():
    for bad in ("flat", "flat-not-lower", "flat-not-prime", "x-not-y"):
        with pytest.raises(ValueError):
            search_counterexample(bad)


@pytest.mark.parametrize("name", ["EX58_CHARACTERIZATION", "EX510_GENERATION",
                                  "COR312_FAMILIES"])
def test_a_coarse_grid_is_a_budget_verdict(name):
    res = run_suite(name, grid=5)
    assert res.verdict == "budget"
    assert res.witnesses == [{"budget": "grid has 5 points; at least 17 required"}]
