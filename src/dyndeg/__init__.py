"""Exact graded intersection algebras, dynamical degrees, and spectral chains.

The package models a smooth projective variety as a finite-dimensional graded
algebra over the rationals with an integration functional, validates pullback
endomorphisms as graded ring maps, and compares three spectral quantities for
a self-map: the radius on the smallest pullback-stable subalgebra generated by
an ample class, the radii on the algebraic graded pieces, and the radii on all
graded pieces.  Exact rational arithmetic everywhere except inside spectral
estimation.
"""

__version__ = "0.1.0"

from .core import (
    COMMUTATIVE,
    SUPER_COMMUTATIVE,
    Element,
    GradedAlgebra,
    build_algebra,
)
from .degrees import (
    DeltaTable,
    EffectiveClass,
    EmbeddedModel,
    bound_constant,
    check_intersection_bound,
    delta,
    delta_table,
    graph_class,
    growth_rates,
    moving_ledger,
    segre_graph_degree,
)
from .endo import (
    PullbackMap,
    identity_map,
    power_map,
    validate_pullback,
)
from .gromov import (
    ChainReport,
    GromovSubalgebra,
    gromov_closure,
    lambda_gr,
    spectral_chain,
)
from .models import (
    abelian_variety,
    custom_model,
    elliptic_square,
    exterior_algebra,
    exterior_pullback,
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
    surface_lattice,
)
from .spectral import (
    char_poly,
    combined_limsup_bound,
    gelfand_sequence,
    limsup_root,
    spectral_radius,
    trace_radius_estimate,
    trace_sequence,
)
