"""What a process loads: the package resolves its names lazily, and a
command imports only the layers it calls.  Each probe runs in a fresh
interpreter and is compared with a bare one in the same environment
(site may preload stdlib modules such as typing)."""

import json
import os
import subprocess
import sys

import pytest

import qideal

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qideal.__file__)))
SUBMODULES = ("completion", "errors", "fuzzy", "ideals", "interval", "io", "qorder",
              "quantale", "scott", "suites")


def loaded(code=""):
    """The modules a fresh interpreter holds after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    probe = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.fixture(scope="module")
def bare():
    return loaded()


def added(bare, code):
    return loaded(code) - bare


def test_importing_the_package_loads_no_submodule(bare):
    assert added(bare, "import qideal") == {"qideal"}


def test_the_enumeration_layers_load_no_later_layer_and_no_dataclasses(bare):
    got = added(bare, "import qideal.fuzzy, qideal.ideals")
    assert {"qideal.fuzzy", "qideal.ideals"} <= got
    assert not got & {"dataclasses", "inspect", "typing", "qideal.scott", "qideal.interval",
                      "qideal.completion", "qideal.suites", "qideal.io", "qideal.cli"}


def test_a_suite_check_loads_only_the_layers_it_runs(bare):
    got = added(bare, "from qideal.cli import main\n"
                      "code = main(['--seed', '1', 'check', 'FC_SUBSET_IRR'])\n"
                      "assert code == 0, code")
    assert {"qideal.cli", "qideal.suites", "qideal.ideals"} <= got
    assert not got & {"dataclasses", "qideal.scott", "qideal.completion", "qideal.interval"}


def test_validating_a_finite_instance_loads_no_interval_layer(bare):
    chain = json.dumps({"kind": "chain", "tnorm": "lukasiewicz", "n": 4})
    got = added(bare, "from qideal.cli import main\n"
                      f"code = main(['validate', {chain!r}])\n"
                      "assert code == 0, code")
    assert {"qideal.cli", "qideal.quantale"} <= got
    assert "qideal.interval" not in got


def test_every_export_is_its_modules_own_object():
    assert len(qideal.__all__) == len(set(qideal.__all__)) == 71
    for name in qideal.__all__:
        home = sys.modules[getattr(qideal, name).__module__]
        assert home.__name__.startswith("qideal.")
        assert getattr(qideal, name) is getattr(home, name), name


def test_dir_lists_the_exports_and_the_submodules():
    listed = set(dir(qideal))
    assert set(qideal.__all__) <= listed and set(SUBMODULES) <= listed
    for name in SUBMODULES:
        assert getattr(qideal, name) is sys.modules[f"qideal.{name}"]


def test_star_import_and_unknown_names():
    space = {}
    exec("from qideal import *", space)
    assert set(qideal.__all__) <= set(space)
    assert space["lukasiewicz_chain"] is qideal.quantale.lukasiewicz_chain
    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        qideal.nothing_here
    with pytest.raises(ImportError):
        exec("from qideal import nothing_here", {})
