"""Sign imbalance of finite posets.

Exact tools for counting and signing linear extensions, domino-tableau
quotients, the height-2 lift and its decomposition, transposition graphs
on extensions, and Euler zigzag numbers.

Importing the package loads none of its modules: each public name below
loads its module on first use (PEP 562), so a caller, and each CLI
query, pays only for the modules it runs.
"""

import importlib

# each public name, by the module that defines it
_MODULES = {
    "canon": "canonical_form is_isomorphic",
    "domino": "DominoTableau enumerate_tableaux exists_q_adapted is_q_adapted "
    "quotient si_via_quotients tableau_sign",
    "errors": "BadGoodSet CycleError FormatError HeightExceeded InvalidExtension "
    "MalformedPartition NotATableau PosetsiError ResourceLimit VerificationError",
    "euler": "check_congruence congruence_failures euler_numbers euler_numbers_mod "
    "primes_never_dividing",
    "generate": "enumerate_posets poset_class_count",
    "h2": "Decomposition build_lift count_f count_f_q decompose enumerate_good_sets "
    "good_base h2sb_decide odd_e_bounds spectrum",
    "linext": "SignedCount at_least_k count_extensions enumerate_extensions "
    "forest_count phi ruskey_criterion sign signed_count stanley_criterion",
    "poset": "Poset PosetStats antichain chain disjoint_union from_covers grid "
    "ordinal_sum stats zigzag",
    "ruskey": "TranspositionGraph build_graph hamiltonian_path is_connected ruskey_report",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
