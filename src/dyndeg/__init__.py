"""Exact graded intersection algebras, dynamical degrees, and spectral chains.

The package models a smooth projective variety as a finite-dimensional graded
algebra over the rationals with an integration functional, validates pullback
endomorphisms as graded ring maps, and compares three spectral quantities for
a self-map: the radius on the smallest pullback-stable subalgebra generated by
an ample class, the radii on the algebraic graded pieces, and the radii on all
graded pieces.  Exact rational arithmetic everywhere except inside spectral
estimation.

Each name is imported from the module that defines it, and ``import dyndeg``
loads no submodule (``python -m dyndeg`` loads only those its command runs).
"""

__version__ = "0.1.0"

# the sign rules of a graded product: x*y = y*x, or x*y = (-1)^(ij) y*x for
# x of degree i and y of degree j (here, so the CLI loads no submodule)
COMMUTATIVE = "commutative"
SUPER_COMMUTATIVE = "super_commutative"
