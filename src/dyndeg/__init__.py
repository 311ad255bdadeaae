"""Exact graded intersection algebras, dynamical degrees, and spectral chains.

The package models a smooth projective variety as a finite-dimensional graded
algebra over the rationals with an integration functional, validates pullback
endomorphisms as graded ring maps, and compares three spectral quantities for
a self-map: the radius on the smallest pullback-stable subalgebra generated by
an ample class, the radii on the algebraic graded pieces, and the radii on all
graded pieces.  Exact rational arithmetic everywhere except inside spectral
estimation.

The public names below are resolved on first access (PEP 562), so
``import dyndeg`` and ``python -m dyndeg`` load no submodule until one is
used.
"""

import importlib

__version__ = "0.1.0"

# the sign rules of a graded product: x*y = y*x, or x*y = (-1)^(ij) y*x for
# x of degree i and y of degree j (here, so the CLI loads no submodule)
COMMUTATIVE = "commutative"
SUPER_COMMUTATIVE = "super_commutative"

# submodule -> the public names it defines
_EXPORTS = {
    "abelian": ("abelian_variety", "elliptic_square", "exterior_pullback"),
    "core": ("Element", "GradedAlgebra", "build_algebra", "tensor_product"),
    "custom": ("custom_model",),
    "degrees": (
        "DeltaTable", "bound_constant", "check_intersection_bound",
        "delta_table", "graph_class", "growth_rates", "limsup_root",
        "moving_ledger", "segre_graph_degree",
    ),
    "endo": ("PullbackMap", "identity_map", "validate_pullback"),
    "estimators": (
        "combined_limsup_bound", "gelfand_sequence", "trace_radius_estimate",
        "trace_sequence",
    ),
    "gromov": (
        "ChainReport", "GromovSubalgebra", "gromov_closure", "lambda_gr",
        "spectral_chain",
    ),
    "lattice": ("surface_lattice",),
    "models": ("EffectiveClass", "EmbeddedModel", "exterior_algebra"),
    "projective": (
        "multiprojective", "pn_power_map", "product_map", "projective_space",
    ),
    "spectral": ("char_poly", "spectral_radius"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["COMMUTATIVE", "SUPER_COMMUTATIVE", *_OWNER]


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value
