"""Command line entry points, exit codes, and report files."""

import json
from pathlib import Path

import pytest

from qideal import io
from qideal.cli import main
from test_quantale import M3_WITH_TOP

LUK3 = '{"kind": "chain", "tnorm": "lukasiewicz", "n": 3}'
DL3 = '{"base": %s, "name": "dL"}' % LUK3
CHAIN2 = ('{"base": %s, "elements": ["a", "b"], '
          '"crisp_leq": [[true, true], [false, true]]}' % LUK3)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, (json.loads(out) if out.strip() else None), err


def test_validate_quantale(capsys):
    code, report, err = run(capsys, "validate", LUK3)
    assert code == 0
    assert report["kind"] == "quantale" and report["valid"]
    assert report["properties"]["is_divisible"] is True
    assert "laws hold" in err


def test_validate_qorder_and_fuzzy_set(capsys):
    code, report, _ = run(capsys, "validate", DL3)
    assert code == 0 and report["valid"]
    code, report, _ = run(capsys, "validate",
                          '{"order": %s, "values": ["1", "1", "1/2"]}' % DL3)
    assert code == 0
    assert report["shape"]["lower"] and not report["shape"]["upper"]


def test_validate_map_reports_order_preservation(capsys):
    disc = '{"base": %s, "name": "discrete", "labels": ["a", "b"]}' % LUK3
    code, report, _ = run(capsys, "validate",
                          '{"source": %s, "target": %s, '
                          '"mapping": {"a": "a", "b": "b"}}' % (CHAIN2, disc))
    assert code == 0
    assert report["order_preserving"] is False
    assert report["violation"] == ["a", "b"]


def test_validate_sequences(capsys):
    code, report, _ = run(capsys, "validate",
                          '{"order": %s, "cycle": ["b"], "prefix": ["a"]}'
                          % CHAIN2)
    assert code == 0 and report["settles"]
    code, report, _ = run(capsys, "validate",
                          '{"order": %s, "cycle": ["a", "b"]}' % CHAIN2)
    assert code == 1 and not report["settles"]
    assert report["violation"]["labels"] == ["b", "a"]


def test_validate_rejects_broken_instances(capsys):
    bad = ('{"base": %s, "elements": ["a"], "hom": [["0"]]}' % LUK3)
    code, _, err = run(capsys, "validate", bad)
    assert code == 1
    assert "invalid instance" in err and "reflexive" in err


def test_classify(capsys):
    code, report, err = run(capsys, "classify", DL3,
                            '{"0": "1", "1/2": "1", "1": "1/2"}')
    assert code == 0
    assert report["inhabited"] and report["flat"]
    assert "classify:" in err
    # full fuzzy-set dumps work as the second argument too
    code, report2, _ = run(capsys, "classify", DL3,
                           '{"order": %s, "values": ["1", "1", "1/2"]}' % DL3)
    assert code == 0 and report2["flat"] == report["flat"]


def test_classify_rejects_misshapen_values(capsys):
    code, _, err = run(capsys, "classify", DL3, '["1", "1"]')
    assert code == 1
    assert "invalid instance" in err


def test_classify_refuses_bool_labels(capsys):
    """A JSON true is no carrier label of a Fraction-labelled quantale,
    though True == Fraction(1)."""
    code, report, err = run(capsys, "classify", DL3, "[true, true, false]")
    assert (code, report, err) == (2, None, "error: label True is not in the carrier\n")


def test_any_spelling_of_a_label_names_it(capsys):
    """JSON keys are strings, and "0" names the point "0" of dL over
    boolean4 as "0.5" names the point 1/2 of dL over Lukasiewicz-3."""
    b4dl = '{"base": {"kind": "boolean4"}, "name": "dL"}'
    top = '{"0": "1", "a": "1", "b": "1", "1": "1"}'
    code, report, _ = run(capsys, "classify", b4dl, top)
    assert code == 0 and report["forward_cauchy"] is True
    code, report, _ = run(capsys, "validate", '{"order": %s, "values": %s}' % (b4dl, top))
    assert code == 0 and report["shape"]["lower"]
    code, as_decimal, _ = run(capsys, "classify", DL3, '{"0": "1", "0.5": "1", "1": "1/2"}')
    assert code == 0
    assert as_decimal == run(capsys, "classify", DL3, '{"0": "1", "1/2": "1", "1": "1/2"}')[1]
    code, _, err = run(capsys, "classify", DL3, '{"0": 1, "1/2": 1, "0.5": 1, "1": 1}')
    assert code == 1 and "two keys name one point" in err


@pytest.mark.parametrize("labels", ['["a", "a"]', '["1", "1.0"]'])
def test_a_discrete_order_refuses_one_label_twice_at_load(capsys, labels):
    """One label twice, or two spellings of one, is an invalid instance
    like the same carrier given as a table, refused before any output."""
    order = '{"base": {"kind": "boolean4"}, "name": "discrete", "labels": %s}' % labels
    for argv in (("enumerate", order, "--class", "fc"), ("validate", order)):
        code, report, err = run(capsys, *argv)
        assert (code, report) == (1, None)
        assert err.startswith("invalid instance: duplicate element label")


def test_a_number_names_no_bool_label(capsys):
    crisp = ('{"base": {"kind": "table", "elements": [false, true], '
             '"leq": [[true, true], [false, true]], "tensor": [[false, false], [false, true]], '
             '"unit": true}, "name": "dL"}')
    code, report, _ = run(capsys, "classify", crisp, "[true, true]")
    assert code == 0 and report["forward_cauchy"] is True
    code, report, err = run(capsys, "classify", crisp, "[1, 1]")
    assert (code, report, err) == (2, None, "error: label 1 is not in the carrier\n")


def test_a_missing_label_is_named_without_quotes(capsys):
    code, report, err = run(capsys, "classify", DL3, '["1", "1/2", null]')
    assert (code, report, err) == (2, None, "error: label None is not in the carrier\n")


def test_enumerate(capsys):
    code, report, _ = run(capsys, "enumerate", DL3, "--class", "fc")
    assert code == 0
    assert report["count"] == 3 == len(report["ideals"])


def test_enumerate_fc_reads_the_principal_rows(capsys):
    """dL over Lukasiewicz-30: 30 ideals at the default budget, which
    its walk would pass."""
    dl30 = '{"base": {"kind": "chain", "tnorm": "lukasiewicz", "n": 30}, "name": "dL"}'
    code, report, _ = run(capsys, "enumerate", dl30, "--class", "fc")
    assert code == 0 and report["count"] == 30
    # A(-, 0) = 1 - x first, A(-, 1) = 1 last
    assert report["ideals"][0]["1/29"] == "28/29" and report["ideals"][0]["1"] == "0"
    assert set(report["ideals"][-1].values()) == {"1"}


def test_enumerate_lukasiewicz8_classes(capsys):
    dl8 = '{"base": {"kind": "chain", "tnorm": "lukasiewicz", "n": 8}, "name": "dL"}'
    for cls in ("irr", "flat"):
        code, report, _ = run(capsys, "enumerate", dl8, "--class", cls)
        assert code == 0 and report["count"] == 8
    # 128 inhabited lower sets, each joining the 8 generator rows of each
    # of its 7 thresholds: 128 * 7 * 8 = 7,168
    code, _, err = run(capsys, "--budget", "7167", "enumerate", dl8,
                       "--class", "irr")
    assert code == 2 and "7168 generator rows joined" in err
    code, report, _ = run(capsys, "--budget", "7168", "enumerate", dl8,
                          "--class", "irr")
    assert code == 0 and report["count"] == 8


def test_enumerate_over_a_lattice_that_is_not_distributive(capsys):
    dl = json.dumps({"base": M3_WITH_TOP, "name": "dL"})
    code, report, _ = run(capsys, "enumerate", dl, "--class", "flat")
    assert code == 0 and report["count"] == 6
    # 17 inhabited lower sets, each folding the 233 upper sets of 6
    # entries at each of 6 values: 17 * 6 * 233 * 6 = 142,596
    code, _, err = run(capsys, "--budget", "142595", "enumerate", dl, "--class", "flat")
    assert code == 2 and "142596 set entries folded" in err


def test_scott(capsys):
    code, report, _ = run(capsys, "scott", DL3, "--mode", "top")
    assert code == 0
    assert report["mode"] == "topology" and report["class"] == "flat"
    assert all(report["axioms"].values())
    assert report["count"] == len(report["members"])


def test_scott_lukasiewicz8(capsys):
    dl8 = '{"base": {"kind": "chain", "tnorm": "lukasiewicz", "n": 8}, "name": "dL"}'
    code, report, _ = run(capsys, "scott", dl8, "--mode", "top")
    assert code == 0 and report["count"] == 576
    # the 576 members are all 576 upper sets, so the axioms test and
    # charge nothing; every fc ideal is principal, so the class has no
    # Scott context to enumerate, and the upper walk's 5064 values tried
    # and written are the whole charge
    code, _, err = run(capsys, "--budget", "5063", "scott", dl8, "--mode", "top",
                       "--class", "fc")
    assert code == 2 and "5064 walk values tried and written" in err
    code, report, _ = run(capsys, "--budget", "5064", "scott", dl8, "--mode", "top",
                          "--class", "fc")
    assert code == 0 and report["count"] == 576


@pytest.mark.parametrize("n", ['"4"', "4.0", "true"])
def test_validate_refuses_a_size_that_is_not_an_integer(capsys, n):
    for instance in ('{"kind": "chain", "tnorm": "godel", "n": %s}' % n,
                     '{"base": %s, "name": "discrete", "n": %s}' % (LUK3, n),
                     '{"base": %s, "name": "power", "n": %s}' % (LUK3, n)):
        code, _, err = run(capsys, "validate", instance)
        assert code == 2 and '"n" must be an integer, got' in err, (instance, err)


@pytest.mark.parametrize("name,missing", [("discrete", '"n" or "labels"'),
                                          ("power", '"n" or "labels"'),
                                          ("opposite", "the Q-order it flips")])
def test_validate_names_what_a_named_order_misses(capsys, name, missing):
    code, report, err = run(capsys, "validate",
                            '{"base": {"kind": "boolean4"}, "name": "%s"}' % name)
    assert code == 2 and report is None and missing in err, err


@pytest.mark.parametrize("name", ["discrete", "power"])
def test_null_labels_are_no_labels(capsys, name):
    code, report, err = run(capsys, "validate", '{"base": {"kind": "boolean4"}, '
                            '"name": "%s", "labels": null}' % name)
    assert code == 2 and report is None and '"n" or "labels"' in err, err


def test_validate_an_ordinal_sum(capsys):
    code, report, _ = run(capsys, "validate",
                          '{"kind": "interval", "tnorm": "ordinal_sum", "pieces": '
                          '[[0, "1/2", "lukasiewicz"], ["1/2", 1, "product"]]}')
    assert code == 0 and report["properties"]["idempotents"] == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("tolerance", ["-1", "true", "NaN", '"1e-9"'])
def test_validate_refuses_an_interval_tolerance_that_is_no_finite_real(capsys, tolerance):
    code, report, err = run(capsys, "validate", '{"kind": "interval", "tnorm": "product", '
                                                '"tolerance": %s}' % tolerance)
    assert code == 2 and report is None and "tolerance must be a finite real >= 0" in err


@pytest.mark.parametrize("tolerance,suite", [("nan", "EX58_CHARACTERIZATION"),
                                             ("-1", "COR312_FAMILIES"),
                                             ("inf", "EX510_GENERATION")])
def test_check_refuses_a_tolerance_that_is_no_finite_real(capsys, tmp_path, monkeypatch,
                                                          tolerance, suite):
    monkeypatch.chdir(tmp_path)
    code, report, err = run(capsys, "--tolerance", tolerance, "check", suite)
    assert code == 2 and report is None and "tolerance must be a finite real >= 0" in err
    assert not list(tmp_path.iterdir())


def test_tolerance_reaches_the_interval_suites(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report, _ = run(capsys, "check", "EX58_CHARACTERIZATION")
    assert code == 0 and report["verdict"] == "pass"
    # a tolerance of 1 hides the tent map's order failure
    code, report, _ = run(capsys, "--tolerance", "1", "check", "EX58_CHARACTERIZATION")
    assert code == 1 and report["verdict"] == "fail"
    assert [w["case"] for w in report["witnesses"]] == ["tent map (not order preserving)"]
    for suite in ("COR312_FAMILIES", "EX510_GENERATION"):
        code, report, _ = run(capsys, "check", suite)
        assert code == 0 and report["details"]["tolerance"] == 1e-9
        code, report, _ = run(capsys, "--tolerance", "0.001", "check", suite)
        assert code == 0 and report["details"]["tolerance"] == 0.001


@pytest.mark.parametrize("mode", ["top", "cotop"])
def test_scott_lukasiewicz10_at_the_default_budget(capsys, mode):
    dl10 = '{"base": {"kind": "chain", "tnorm": "lukasiewicz", "n": 10}, "name": "dL"}'
    code, report, _ = run(capsys, "scott", dl10, "--mode", mode)
    assert code == 0 and report["count"] == 2816
    assert all(report["axioms"].values())


def test_check_pass_and_report_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report, _ = run(capsys, "check", "BOOLEAN4_COUNTEREXAMPLE")
    assert code == 0 and report["verdict"] == "pass"
    assert not list(tmp_path.iterdir())   # no report on a pass
    target = tmp_path / "out.json"
    code, _, err = run(capsys, "check", "BOOLEAN4_COUNTEREXAMPLE",
                       "--report", str(target))
    assert code == 0 and target.exists()
    assert json.loads(target.read_text())["verdict"] == "pass"
    assert "report written" in err


def test_check_budget_and_unknown(capsys):
    from qideal.suites import suite_names

    code, _, err = run(capsys, "--budget", "1", "check", "FC_SUBSET_IRR")
    assert code == 2
    code, report, err = run(capsys, "check", "NO_SUCH_SUITE")
    assert (code, report) == (2, None)
    assert err == f"error: unknown suite 'NO_SUCH_SUITE'; known: {', '.join(suite_names())}\n"


def test_malformed_inline_json_is_a_usage_error(capsys):
    for argv in (("validate", "[1, 2"), ("classify", "[1, 2", "[1]")):
        code, report, err = run(capsys, *argv)
        assert (code, report) == (2, None), argv
        assert err == "error: Expecting ',' delimiter: line 1 column 6 (char 5)\n", argv


def test_check_help_lists_every_suite(capsys):
    from qideal.suites import suite_names

    with pytest.raises(SystemExit) as exit_:
        main(["check", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert exit_.value.code == 0
    assert ", ".join(suite_names()) in out


def test_check_coarse_grid_reports_a_budget_verdict(capsys):
    code, report, err = run(capsys, "check", "EX58_CHARACTERIZATION",
                            "--param", "grid=5")
    assert code == 2
    assert report["verdict"] == "budget"
    assert "at least 17 required" in report["witnesses"][0]["budget"]
    assert "BUDGET" in err


def test_budget_zero_is_not_the_default(capsys):
    code, _, err = run(capsys, "--budget", "0", "enumerate", DL3,
                       "--class", "irr")
    assert code == 2
    assert "exceed the budget of 0" in err


def test_oversized_instances_are_refused_before_any_table_is_built(capsys, monkeypatch):
    def build(*args, **kwargs):
        pytest.fail("a table was built for an instance over the budget")
    for name in ("chain_quantale", "build_finite_quantale", "standard_qorder"):
        monkeypatch.setattr(io, name, build)
    huge = 10 ** 9
    chain = '{"kind": "chain", "tnorm": "lukasiewicz", "n": %d}' % huge
    code, _, err = run(capsys, "validate", chain)
    assert code == 2
    assert f"{huge ** 3} quantale law checks exceed the budget of 5000000" in err
    code, _, err = run(capsys, "enumerate", '{"base": %s, "name": "dL"}' % chain)
    assert code == 2 and "quantale law checks" in err
    table = json.dumps({"kind": "table", "elements": [f"e{i}" for i in range(200)],
                        "leq": [], "tensor": [], "unit": "e0"})
    code, _, err = run(capsys, "validate", table)
    assert code == 2 and "8000000 quantale law checks" in err
    discrete = '{"base": {"kind": "boolean4"}, "name": "discrete", "n": %d}' % huge
    code, _, err = run(capsys, "scott", discrete)
    assert code == 2 and f"{huge ** 2} hom entries exceed" in err


def test_instance_sizes_are_charged_against_the_budget(capsys):
    code, _, err = run(capsys, "--budget", "26", "validate", LUK3)
    assert code == 2 and "27 quantale law checks exceed the budget of 26" in err
    assert run(capsys, "--budget", "27", "validate", LUK3)[0] == 0
    discrete = '{"base": {"kind": "boolean4"}, "name": "discrete", "n": 3}'
    code, _, err = run(capsys, "--budget", "8", "validate", discrete)
    assert code == 2 and "9 hom entries exceed the budget of 8" in err
    code, _, err = run(capsys, "--budget", "26", "validate", discrete)
    assert code == 2 and "27 qorder law checks exceed the budget of 26" in err
    assert run(capsys, "--budget", "27", "validate", discrete)[0] == 0


def test_orders_are_charged_before_they_are_built_or_validated(capsys, monkeypatch):
    """A discrete order given by labels pays the n ** 2 hom entries that
    one given by "n" pays; an order given by its elements, and validate
    of any order, pay n ** 3 law checks before the triples are tried."""
    from qideal import qorder

    def build(*args, **kwargs):
        pytest.fail("an order over the budget was built or validated")
    for name in ("build_qorder", "crisp_qorder", "standard_qorder"):
        monkeypatch.setattr(io, name, build)
    labels = json.dumps({"base": {"kind": "boolean4"}, "name": "discrete",
                         "labels": [f"p{i}" for i in range(40)]})
    code, _, err = run(capsys, "--budget", "1000", "validate", labels)
    assert code == 2 and "1600 hom entries exceed the budget of 1000" in err
    leq = [[i <= j for j in range(11)] for i in range(11)]
    chain = json.dumps({"base": {"kind": "boolean4"}, "elements": list(range(11)),
                        "crisp_leq": leq})
    code, _, err = run(capsys, "--budget", "1000", "validate", chain)
    assert code == 2 and "1331 qorder law checks exceed the budget of 1000" in err
    monkeypatch.undo()
    monkeypatch.setattr(qorder, "validate_qorder", build)
    discrete = '{"base": {"kind": "boolean4"}, "name": "discrete", "n": 11}'
    code, _, err = run(capsys, "--budget", "1000", "validate", discrete)
    assert code == 2 and "1331 qorder law checks exceed the budget of 1000" in err


POWER3 = '{"base": %s, "name": "power", "n": 3}' % LUK3


def test_budget_reaches_the_power_construction(capsys):
    """27 maps on 3 labels, 27 * 27 * 3 hom lookups; validating the 27
    points rechecks 27 ** 3 triples."""
    code, _, err = run(capsys, "--budget", "100", "validate", POWER3)
    assert code == 2 and "2187 power hom lookups exceed the budget of 100" in err
    code, _, err = run(capsys, "--budget", "2187", "validate", POWER3)
    assert code == 2 and "19683 qorder law checks exceed the budget of 2187" in err
    code, report, _ = run(capsys, "--budget", "19683", "validate", POWER3)
    assert code == 0 and report["valid"]


def test_a_count_too_long_to_print_is_named_by_a_power_of_two(capsys):
    """(4^4000)^2 * 4000 = 2^16000 * 4000 hom lookups have 4,821 digits,
    more than Python turns into a decimal string."""
    power = '{"base": {"kind": "boolean4"}, "name": "power", "n": 4000}'
    code, report, err = run(capsys, "validate", power)
    assert code == 2 and report is None
    assert err == ("budget: at least 2^16011 power hom lookups exceed the budget of "
                   "5000000\n")
    code, _, err = run(capsys, "--budget", str(10 ** 40), "validate", power)
    assert code == 2 and "exceed the budget of at least 2^132\n" in err
    code, _, err = run(capsys, "--budget", str(10 ** 30 - 1), "validate", power)
    assert code == 2 and f"exceed the budget of {10 ** 30 - 1}\n" in err


@pytest.mark.parametrize("name", ["power", "dL"])
def test_an_instance_cannot_set_its_own_budget(capsys, name):
    order = '{"base": %s, "name": "%s", "n": 3, "budget": 100000}' % (LUK3, name)
    code, report, err = run(capsys, "validate", order)
    assert code == 2 and report is None and "budget" in err


def test_check_params(capsys):
    code, report, _ = run(capsys, "check", "SCOTT_AXIOMS",
                          "--param", "phases=duality")
    assert code == 0 and report["verdict"] == "pass"
    code, _, err = run(capsys, "check", "SCOTT_AXIOMS", "--param", "phases")
    assert code == 2
    code, _, err = run(capsys, "check", "SCOTT_AXIOMS", "--param", "phases=axiom")
    assert code == 2 and "axiom" in err
    code, _, err = run(capsys, "check", "CLASSICAL_DEGENERATION",
                       "--param", "max_points=0")
    assert code == 2 and "max_points" in err
    code, _, err = run(capsys, "check", "GODEL_FLAT_NOT_IRR", "--param", "n=5.7")
    assert code == 2 and "n must be an integer, got 5.7" in err


def test_check_refuses_a_misspelt_param(capsys):
    code, report, err = run(capsys, "check", "COR312_FAMILIES", "--param", "gird=5")
    assert code == 2 and report is None
    assert "gird" in err and "its parameters are grid" in err


def test_ex510_refuses_a_negative_shift(capsys, tmp_path, monkeypatch):
    """min(1, x + shift) must lie above the identity: a negative shift is
    a usage error (exit 2) with no report, not a failed claim (exit 1)."""
    monkeypatch.chdir(tmp_path)
    for shift in ("0", "1/2", "2"):
        code, report, _ = run(capsys, "check", "EX510_GENERATION", "--param", f"shift={shift}")
        assert code == 0 and report["verdict"] == "pass", shift
    code, report, err = run(capsys, "check", "EX510_GENERATION", "--param", "shift=-1")
    assert code == 2 and report is None
    assert err == "error: shift must be at least 0, got -1\n"
    assert not list(tmp_path.iterdir())


def test_search_refuses_one_class_twice(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report, err = run(capsys, "search-counterexample", "--shape", "fc-not-fc")
    assert code == 2 and report is None
    assert err.startswith("error: shape 'fc-not-fc' names one class twice")
    assert not list(tmp_path.iterdir())


def test_search_found_writes_witness(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report, err = run(capsys, "search-counterexample",
                            "--shape", "flat-not-fc")
    assert code == 1 and report["found"]
    path = tmp_path / "qideal-search-flat-not-fc.json"
    assert path.exists()
    assert json.loads(path.read_text())["found"]
    assert "witness written" in err


def test_reports_are_indented_json_and_files_repeat_stdout(capsys, tmp_path, monkeypatch):
    """stdout carries indented JSON with sorted keys and a final newline,
    written in batches of encoder chunks (the 576 members of dL over
    Łukasiewicz-8 take many), and a report file the same bytes."""
    monkeypatch.chdir(tmp_path)
    dl8 = '{"base": {"kind": "chain", "tnorm": "lukasiewicz", "n": 8}, "name": "dL"}'
    for argv, path in ((("scott", dl8), None),
                       (("check", "BOOLEAN4_COUNTEREXAMPLE", "--report", "out.json"),
                        "out.json"),
                       (("search-counterexample", "--shape", "flat-not-fc"),
                        "qideal-search-flat-not-fc.json")):
        main(list(argv))
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        if path is not None:
            assert (tmp_path / path).read_text(encoding="utf-8") == out


def test_search_exhausted(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, report, _ = run(capsys, "search-counterexample",
                          "--shape", "fc-not-flat", "--limit", "20")
    assert code == 0 and not report["found"]
    assert not list(tmp_path.iterdir())
    code, _, err = run(capsys, "search-counterexample", "--shape", "fc-not")
    assert code == 2


def test_search_limit(capsys):
    code, report, err = run(capsys, "search-counterexample",
                            "--shape", "fc-not-flat", "--limit", "0")
    assert code == 0 and report["checked"] == {"instances": 0, "ideals": 0}
    assert "nothing in 0 instances (0 ideals)" in err
    code, _, err = run(capsys, "search-counterexample",
                       "--shape", "fc-not-flat", "--limit", "-1")
    assert code == 2 and "limit" in err


def test_error_exits(capsys):
    code, _, err = run(capsys, "validate", "no-such-file.json")
    assert code == 2
    code, _, err = run(capsys, "validate", '{"zap": 1}')
    assert code == 2
    assert "cannot infer" in err


def test_seed_is_plumbed_through(capsys):
    code, report, _ = run(capsys, "--seed", "11", "check", "FC_SUBSET_IRR")
    assert code == 0
    assert report["details"]["seed"] == 11


CLASSIFY_DATA = Path(__file__).parent / "data" / "classify"


@pytest.mark.parametrize("name", ["boolean4_break", "lukasiewicz20_non_ideal",
                                  "m3_with_top_fold"])
def test_classify_reports_equal_the_committed_bytes(capsys, name):
    """Witnesses from the generator rows (boolean4, Lukasiewicz-20) and
    from the fold over every set (M3 with a top), byte for byte."""
    code = main(["classify", str(CLASSIFY_DATA / f"{name}.qorder.json"),
                 str(CLASSIFY_DATA / f"{name}.phi.json")])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (CLASSIFY_DATA / f"{name}.json").read_text(encoding="utf-8")
