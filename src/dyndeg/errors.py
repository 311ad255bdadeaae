"""Exception hierarchy.

Every validation error names the offending basis vectors as ``(degree, index)``
pairs so callers (and the CLI) can report exactly which product or triple broke
a law.  ``payload()`` returns a JSON-ready description used by the CLI when it
writes structured errors to stderr.
"""

from __future__ import annotations


class DynDegError(Exception):
    """Base class for all library errors."""

    kind = "error"

    def payload(self) -> dict:
        return {"error": self.kind, "message": str(self)}


class ShapeMismatch(DynDegError):
    kind = "ShapeMismatch"


class AssociativityViolation(DynDegError):
    kind = "AssociativityViolation"

    def __init__(self, triple, message=""):
        self.triple = tuple(triple)
        super().__init__(
            message or f"associativity fails on basis triple {self.triple}"
        )

    def payload(self):
        return {"error": self.kind, "triple": [list(t) for t in self.triple],
                "message": str(self)}


class SignRuleViolation(DynDegError):
    kind = "SignRuleViolation"

    def __init__(self, pair, message=""):
        self.pair = tuple(pair)
        super().__init__(message or f"sign rule fails on basis pair {self.pair}")

    def payload(self):
        return {"error": self.kind, "pair": [list(p) for p in self.pair],
                "message": str(self)}


class UnitViolation(DynDegError):
    kind = "UnitViolation"

    def __init__(self, basis=None, message=""):
        self.basis = tuple(basis) if basis is not None else None
        super().__init__(message or f"unit law fails on basis vector {self.basis}")

    def payload(self):
        out = {"error": self.kind, "message": str(self)}
        if self.basis is not None:
            out["basis"] = list(self.basis)
        return out


class MultiplicativityViolation(DynDegError):
    kind = "MultiplicativityViolation"

    def __init__(self, pair, message=""):
        self.pair = tuple(pair)
        super().__init__(
            message
            or f"pullback is not multiplicative on basis pair {self.pair}"
        )

    def payload(self):
        return {"error": self.kind, "pair": [list(p) for p in self.pair],
                "message": str(self)}


class SpectralNonconvergence(DynDegError):
    """Raised when the certified root bracket cannot be tightened to ``tol``.

    Carries the best bracket found so the caller can still inspect it.
    """

    kind = "SpectralNonconvergence"

    def __init__(self, estimate, error_bound, message=""):
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(
            message
            or f"spectral radius bracket stalled at {estimate} ± {error_bound}"
        )


class ZeroWeight(DynDegError):
    kind = "ZeroWeight"


class StepOutOfRange(DynDegError):
    kind = "StepOutOfRange"


class NonComplementaryDegrees(DynDegError):
    kind = "NonComplementaryDegrees"


class PermutationShapeMismatch(DynDegError):
    kind = "PermutationShapeMismatch"


class AmpleClassDegenerate(DynDegError):
    kind = "AmpleClassDegenerate"


class NotIsometry(DynDegError):
    kind = "NotIsometry"


class AmpleNotPositive(DynDegError):
    kind = "AmpleNotPositive"


class FloatOverflow(DynDegError):
    kind = "FloatOverflow"

    def __init__(self, entries, message=""):
        self.entries = list(entries)
        super().__init__(
            message or f"non-finite float entries at positions {self.entries}"
        )


class UsageError(DynDegError):
    """A command line the CLI cannot read: no or an unknown command, an
    unknown flag, a flag without its value, or no ``--config``."""

    kind = "UsageError"


class SchemaError(DynDegError):
    """Config validation failure listing every violation with a JSON pointer."""

    kind = "SchemaError"

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.violations)
        super().__init__(lines or "invalid configuration")

    def payload(self):
        return {
            "error": self.kind,
            "violations": [{"path": p, "message": m} for p, m in self.violations],
        }


class UnknownModelKind(SchemaError):
    kind = "UnknownModelKind"


class BadMatrixShape(SchemaError):
    kind = "BadMatrixShape"
