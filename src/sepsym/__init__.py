"""sepsym: a numerical laboratory for separating hierarchies of
non-linear Schrodinger-type evolutions and their symmetries.

The names below are imported from their module on first access (PEP 562),
so importing one part of the package does not import the rest.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it; each module resolves too
_EXPORTS = {
    "errors": ("BadRange", "BadTuple", "DomainError", "IndexMismatch", "NotDerivation",
               "ScenarioError", "SepsymError", "SizeCapExceeded", "SpaceMismatch",
               "StepMismatch", "ZeroAmplitude", "ZeroBase"),
    "mixedpow": ("B", "E", "I", "IndexPair", "J", "ZERO_PAIR", "mixed_power", "pair_action",
                 "pair_bracket", "pair_product"),
    "space": ("ConfigSpace", "random_state"),
    "opcalc": ("NonlinearOperator", "check_permutation_property", "estimate_log_indices",
               "euler_log_residual", "euler_power_residual", "lie_bracket"),
    "operators": (),
    "hierarchy": ("Generator", "Hierarchy", "canonical_decompose", "canonical_lift", "lift_J",
                  "natural_part", "tensor_derivation_residual"),
    "obstruction": ("corollary1_obstruction", "corollary2_obstruction", "obstruction_lhs",
                    "obstruction_rhs"),
    "evolution": ("EvolutionConfig", "IndexTrajectory", "extract_indices", "index_ode_solve",
                  "scaling_test", "separation_test"),
    "symmetry": ("AffineMap", "FiniteSymmetry", "InfinitesimalSymmetry", "PointSymmetrySpec",
                 "inf_symmetry_bracket", "inf_symmetry_residual", "symmetry_residual"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_OF))
