"""Exception types shared across the package.

Every failure that a caller might want to branch on gets its own class;
diagnostic payloads (partial counts, residuals, offending entries) ride
along as attributes so reports can be assembled without string parsing.
"""

from __future__ import annotations

__all__ = [
    "CartanDataError",
    "WeylCapExceeded",
    "InvariantViolation",
    "IntegralityError",
    "UnsupportedFolding",
    "UnderdeterminedCocycle",
    "ExtensionRejected",
    "InternalConsistencyError",
    "PreconditionError",
    "ConjectureViolation",
    "PrecisionExhausted",
]


class CartanDataError(ValueError):
    """Series letter / rank combination outside the simple Lie algebra tables."""


class WeylCapExceeded(RuntimeError):
    """Weyl group traversal hit the element cap before closing.

    Attributes:
        cap: the configured limit.
        partial: number of distinct elements counted through the length
            layer that took the count past ``cap``.
    """

    def __init__(self, cap: int, partial: int):
        super().__init__(
            f"Weyl group traversal exceeded cap={cap} (found {partial} elements "
            "before stopping); raise the cap to continue"
        )
        self.cap = cap
        self.partial = partial


class InvariantViolation(RuntimeError):
    """A required matrix identity failed beyond tolerance.

    Attributes:
        relation: short name of the identity ("unitarity", "st_cube", ...).
        residual: worst absolute deviation observed.
        tol: tolerance the check ran at.
    """

    def __init__(self, relation: str, residual: float, tol: float, detail: str = ""):
        msg = f"invariant '{relation}' violated: residual {residual:.3e} > tol {tol:.1e}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.relation = relation
        self.residual = residual
        self.tol = tol


class IntegralityError(RuntimeError):
    """A quantity that must be a non-negative integer failed to round cleanly."""

    def __init__(self, what: str, value, residual: float, where=None):
        super().__init__(
            f"{what} not integral: value {value} (residual {residual:.3e})"
            + (f" at {where}" if where is not None else "")
        )
        self.what = what
        self.value = value
        self.residual = residual
        self.where = where


class UnsupportedFolding(NotImplementedError):
    """Orbit-algebra folding outside the implemented catalog."""


class UnderdeterminedCocycle(RuntimeError):
    """Every admissible row of a fixed-point S-matrix column vanished."""


class ExtensionRejected(RuntimeError):
    """Simple-current extension refused (non-integer current weight, etc.)."""


class InternalConsistencyError(RuntimeError):
    """Two independent routes to the same data disagreed."""


class PreconditionError(ValueError):
    """Operation called with inputs that violate its stated preconditions."""


class ConjectureViolation(RuntimeError):
    """A conjectural identity failed numerically; payload preserved for reporting.

    Attributes:
        report: dict with the offending inputs and computed values.
    """

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class PrecisionExhausted(ArithmeticError):
    """A float computation ran past the range or precision its answer needs."""
