"""Quantale-valued order theory toolkit.

Exact finite quantales, ordered sets valued in them, fuzzy lower/upper
sets, three ideal classes with deciders and witnesses, ideal-space
completions, Scott-style open and closed structures, the unit interval
with its sampled checks, and a registry of named check suites behind a
CLI.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), and so is each
submodule named as an attribute, so a process loads only what it uses.
"""

from importlib import import_module as _import

_EXPORTS = {
    "completion": "IdealSpace check_completeness_continuity check_saturation ideal_space "
                  "weighted_join",
    "errors": "BudgetExceeded GridTooCoarse QidealError UnknownSuite ValidationError",
    "fuzzy": "FuzzySet classify_fuzzy_set constant_fuzzy_set enumerate_monotone_sets "
             "fuzzy_set intersection_inclusion_identities kan_transport_identity sub_degree "
             "suprema tensor_degree transport yoneda",
    "ideals": "EventuallyPeriodicSequence IdealReport classify_ideal enumerate_ideals "
              "ideal_from_sequence periodic_sequence",
    "interval": "IntervalQuantale approach_terms classify_sampled generate_interval_ideal "
                "interval_dR_scott_closed interval_order interval_quantale "
                "irreducible_interval_ideal verify_ordinal_sum_generation",
    "io": "dump_instance load_instance save_instance",
    "qorder": "QMap QOrderedSet all_qmaps build_qmap build_qorder check_map_and_adjunction "
              "crisp_qorder opposite random_qorder standard_qorder validate_qorder",
    "quantale": "FiniteQuantale boolean4 build_finite_quantale chain_quantale godel_chain "
                "lukasiewicz_chain nilpotent_minimum_chain quantale_properties",
    "scott": "ScottStructure check_structure_axioms cocontinuity_equivalence "
             "generate_scott_structure is_scott_member",
    "suites": "SuiteResult run_suite search_counterexample suite_names",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import(f"{__name__}.{name}")
    if name in _HOME:
        value = globals()[name] = getattr(_import(f"{__name__}.{_HOME[name]}"), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
