"""Embedded models, the checks they share, and the E^g cohomology ring.

An :class:`EmbeddedModel` is an algebra with an ample class, the ambient
dimension and deg(X), plus the :class:`EffectiveClass` list a builder vouches
for.  Every builder emits a valid one together with valid
pullbacks.  Builders are also where realizability is decided: a
power map of projective space or an integer matrix acting on a product of
elliptic curves comes from an actual morphism, so those maps carry
``realizability="asserted"``; hand-supplied matrices stay "unverified".
Which matrices are realizable in general is a number-theoretic question the
library never guesses at - the flags just propagate into reports.

The builders live in one module per model kind (``projective``, also for
``multiprojective``, ``abelian``, ``lattice`` and ``custom``), each with its
kind's config adapter ``build_<kind>`` and cross-field check ``check_<kind>``,
so a command compiles only the kind it builds.  Here are :func:`exterior_algebra`,
the ring H*(E^g) that ``abelian`` builds on, and the ``check_*`` config checks
that several kinds or the CLI's ``ample`` override share.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

# ``core.build_algebra`` is looked up when called, so a wrapper bound there
# (a tracer's) is the one that runs
from . import SUPER_COMMUTATIVE, core
from .errors import AmpleNotPositive, ShapeMismatch
from .linalg import as_fraction


class EffectiveClass(namedtuple("EffectiveClass", "label element")):
    """A homogeneous class a builder vouches is effective."""

    __slots__ = ()


class EmbeddedModel:
    """Algebra + ample class + ambient dimension + degree, with provenance."""

    def __init__(self, algebra: core.GradedAlgebra, h: core.Element, ambient_dim: int,
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
    def h_powers(self) -> tuple[core.Element, ...]:
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
        """The one ample check of every route to an asserted verdict: h^r != 0,
        deg(X) > 0, Nakai-Moishezon on ``effective``, omega_H with H > 0 on E^g."""
        if self.h.degrees() != (2,):
            raise ShapeMismatch("h must be homogeneous of degree 2 and nonzero")
        if self.h_powers[self.r].is_zero():
            raise ShapeMismatch("h^r vanishes: h is not a valid ample class")
        if self.deg_x <= 0:
            raise AmpleNotPositive(f"deg(X) = {self.deg_x} must be positive")
        # Nakai-Moishezon, on what the builder vouches for: h^(r-k) . e > 0
        # for each effective e of degree 2k
        for e in self.effective:
            degree = e.element.degree()
            if degree is not None and degree % 2 == 0:
                power = self.r - degree // 2
                value = self.algebra.pair(self.h_powers[power], e.element)
                if value <= 0:
                    raise AmpleNotPositive(
                        f"not ample: h^{power} on the effective class "
                        f"{e.label!r} is {value}, not positive"
                    )
        if self.realizability == "asserted" and self.algebra.exterior:
            from .abelian import check_polarization  # only E^g compiles it
            check_polarization(self)
        return self


@functools.lru_cache(maxsize=None)
def exterior_algebra(g: int) -> core.GradedAlgebra:
    """H*(E^g): the tensor product of 2g exterior algebras on one degree-1
    generator, with top-form integration.  Cached, one immutable copy per g,
    and valid by construction (``core.tensor_product``), so not validated."""
    if g < 1:
        raise ShapeMismatch("genus must be >= 1")
    line = core.build_algebra(1, (1, 1), SUPER_COMMUTATIVE, {}, integrate=(1,))
    return core.tensor_product(*[line] * (2 * g))


# ---------------------------------------------------------------------------
# config checks shared by the kinds and the CLI
# ---------------------------------------------------------------------------

# Each adds what it finds to ``c`` (the CLI's violation collector) as a JSON
# pointer and a message.

def check_square(c, path: str, spec, key: str, n: int) -> None:
    """``spec[key]``, when given, must be an n x n matrix."""
    if key in spec and (len(spec[key]) != n or len(spec[key][0]) != n):
        c.add(f"{path}/{key}", f"expected a {n}x{n} matrix")


def check_length(c, path: str, vector, degree: int, dims,
                 degree_path: str | None = None) -> bool:
    """``vector`` must have ``dims[degree]`` coordinates; a degree outside
    the grading is reported at ``degree_path`` (default ``path``)."""
    if not 0 <= degree < len(dims):
        c.add(degree_path or path, f"degree {degree} outside 0..{len(dims) - 1}")
    elif len(vector) != dims[degree]:
        c.add(path, f"expected dims[{degree}] = {dims[degree]} coordinates")
    else:
        return True
    return False


def check_divisor(c, path: str, vector, dims) -> None:
    """A nonzero class of degree 2."""
    if check_length(c, path, vector, 2, dims) and not any(map(as_fraction, vector)):
        c.add(path, "expected a nonzero class")
