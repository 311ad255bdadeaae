"""Embedded models, the custom-model builder, and where the other builders
live.

An :class:`EmbeddedModel` is an algebra with an ample class, the ambient
dimension and deg(X), plus the :class:`EffectiveClass` list a builder vouches
for.  Every builder emits a fully validated one together with validated
pullbacks.  Builders are also where realizability is decided: a
power map of projective space or an integer matrix acting on a product of
elliptic curves comes from an actual morphism, so those maps carry
``realizability="asserted"``; hand-supplied matrices stay "unverified".
Which matrices are realizable in general is a number-theoretic question the
library never guesses at - the flags just propagate into reports.

The other builders live in one module per model kind (``projective``,
``abelian``, ``lattice``), so a command compiles only the kind it builds;
their names still resolve here, on first access (PEP 562).
"""

from __future__ import annotations

import functools
import importlib
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import COMMUTATIVE
from .core import Element, GradedAlgebra, build_algebra
from .errors import ShapeMismatch
from .linalg import as_fraction

_BUILDER_MODULES = ("projective", "abelian", "lattice")


def __getattr__(name):
    from . import _OWNER  # the package's table of who defines each name

    if _OWNER.get(name) not in _BUILDER_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __package__), name)
    globals()[name] = value
    return value


class EffectiveClass(NamedTuple):
    """A homogeneous class a builder vouches is effective."""

    label: str
    element: Element


class EmbeddedModel:
    """Algebra + ample class + ambient dimension + degree, with provenance."""

    def __init__(self, algebra: GradedAlgebra, h: Element, ambient_dim: int,
                 realizability: str = "unverified", provenance: str = "custom",
                 effective: tuple[EffectiveClass, ...] = (),
                 scope_note: str | None = None):
        self.algebra = algebra
        self.h = h
        self.ambient_dim = ambient_dim
        self.realizability = realizability
        self.provenance = provenance
        self.effective = effective
        self.scope_note = scope_note

    @property
    def r(self) -> int:
        return self.algebra.top_degree // 2

    @functools.cached_property
    def h_powers(self) -> tuple[Element, ...]:
        """``(1, h, h^2, ..., h^r)``, computed once per model."""
        powers = [self.algebra.one()]
        for _ in range(self.r):
            powers.append(self.algebra.mul(powers[-1], self.h))
        return tuple(powers)

    @functools.cached_property
    def deg_x(self) -> Fraction:
        """deg(X) = integrate(h^r)."""
        return self.algebra.integrate(self.h_powers[self.r])

    def validate(self) -> "EmbeddedModel":
        if self.h.degrees() != (2,):
            raise ShapeMismatch("h must be homogeneous of degree 2 and nonzero")
        if self.h_powers[self.r].is_zero():
            raise ShapeMismatch("h^r vanishes: h is not a valid ample class")
        if self.deg_x <= 0:
            raise ShapeMismatch(f"deg(X) = {self.deg_x} must be positive")
        return self


# ---------------------------------------------------------------------------
# custom models from config dictionaries
# ---------------------------------------------------------------------------

def custom_model(params: Mapping) -> EmbeddedModel:
    """Build a model from the CLI's custom-model schema (kind "custom").

    Everything is validated; realizability is "unverified" unless overridden.
    A pullback comes from ``validate_pullback`` on the model's algebra.
    """
    top = int(params["top_degree"])
    dims = [int(d) for d in params["dims"]]
    sign_rule = params.get("sign_rule", COMMUTATIVE)
    products = {}
    for entry in params.get("products", ()):
        (i, p), (j, q) = entry["a"], entry["b"]
        value = entry["value"]
        if isinstance(value, Mapping):
            vec = {int(k): as_fraction(c) for k, c in value.items()}
        else:
            vec = {int(k): as_fraction(c) for k, c in value}
        products[((int(i), int(p)), (int(j), int(q)))] = vec
    algebra = build_algebra(
        top, dims, sign_rule, products,
        integrate=[as_fraction(c) for c in params["integrate"]],
        unit=[as_fraction(c) for c in params.get("unit", (1,))],
    )
    h = algebra.homogeneous(2, [as_fraction(c) for c in params["h"]])
    effective = tuple(
        EffectiveClass(
            e.get("label", f"effective[{i}]"),
            algebra.homogeneous(
                int(e["degree"]), [as_fraction(c) for c in e["coords"]]
            ),
        )
        for i, e in enumerate(params.get("effective", ()))
    )
    return EmbeddedModel(
        algebra,
        h,
        ambient_dim=int(params["ambient_dim"]),
        realizability=params.get("realizability", "unverified"),
        provenance="custom",
        effective=effective,
    ).validate()
