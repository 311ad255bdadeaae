"""Exception hierarchy.

Every validation error names the offending basis vectors as ``(degree, index)``
pairs, and ``payload()`` is the JSON description the CLI writes to stderr: its
``"error"`` is the class's name.  An error that carries data declares it: it
takes its ``fields`` as positional arguments (those not given are None) and
keeps each as an attribute, its message, unless ``message`` is given, is
``template`` formatted with them, and its payload adds each ``shown`` field
that is not None (JSON writes tuples as lists).  Each class is one that a
caller or the CLI's output tells apart.
"""

from __future__ import annotations


class DynDegError(Exception):
    """Base class for all library errors; one without ``fields`` takes its
    message as its one argument."""

    fields: tuple[str, ...] = ()
    template = ""
    shown: tuple[str, ...] = ()

    def __init__(self, *args, message=""):
        if self.fields:
            values = dict(zip(self.fields, args + (None,) * len(self.fields)))
            vars(self).update(values)
            args = (message or self.template.format(**values),)
        super().__init__(*args)

    def payload(self) -> dict:
        out = {"error": type(self).__name__, "message": str(self)}
        out.update((name, getattr(self, name)) for name in self.shown
                   if getattr(self, name) is not None)
        return out


class ShapeMismatch(DynDegError):
    """An argument of the wrong shape, degree, index or range."""


class AssociativityViolation(DynDegError):
    fields = shown = ("triple",)
    template = "associativity fails on basis triple {triple}"


class SignRuleViolation(DynDegError):
    fields = shown = ("pair",)
    template = "sign rule fails on basis pair {pair}"


class UnitViolation(DynDegError):
    fields = shown = ("basis",)
    template = "unit law fails on basis vector {basis}"


class MultiplicativityViolation(DynDegError):
    fields = shown = ("pair",)
    template = "pullback is not multiplicative on basis pair {pair}"


class SpectralNonconvergence(DynDegError):
    """Raised when the certified root bracket cannot be tightened to ``tol``.

    Carries the best bracket found so the caller can still inspect it.
    """

    fields = ("estimate", "error_bound")
    template = "spectral radius bracket stalled at {estimate} ± {error_bound}"


class NotIsometry(DynDegError):
    """A surface lattice map that does not preserve the Gram matrix."""


class AmpleNotPositive(DynDegError):
    """An ample class whose degree, effective pairings or H is not positive."""


class FloatOverflow(DynDegError):
    fields = ("entries",)
    template = "non-finite float entries at positions {entries}"


class UsageError(DynDegError):
    """A command line the CLI cannot read: no or an unknown command, an
    unknown flag, a flag without its value, or no ``--config``."""


class SchemaError(DynDegError):
    """Config validation failure listing every violation with a JSON pointer."""

    fields = ("violations",)  # (JSON pointer, message) pairs

    def __init__(self, violations):
        violations = list(violations)
        lines = "; ".join(f"{path}: {msg}" for path, msg in violations)
        super().__init__(violations, message=lines or "invalid configuration")

    def payload(self):
        # one record per violation, and no message: the records are it
        return {
            "error": type(self).__name__,
            "violations": [{"path": p, "message": m} for p, m in self.violations],
        }


class UnknownModelKind(SchemaError):
    """A config whose model kind the CLI has no builder for."""


class BadMatrixShape(SchemaError):
    """A config matrix that is not a nonempty grid of exact rationals."""
