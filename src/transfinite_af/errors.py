"""Shared exception types, and the budget behind every cap.

Parse-type errors subclass ValueError and live next to their parsers;
everything here is a runtime/domain failure.  Every cap is a `Budget`, the
only library code outside checks.py's oracles that raises CapExceeded.
"""


class TransfiniteAFError(Exception):
    """Base class for domain errors raised by this package."""


class DomainError(TransfiniteAFError):
    """A documented precondition of an operation was violated."""


class CapExceeded(TransfiniteAFError):
    """A node/state/closure cap was hit before the computation finished."""


class UnsupportedExpression(TransfiniteAFError):
    """A symbolic quantity falls outside the supported affine fragment."""


class IncompleteStageMap(TransfiniteAFError):
    """A candidate stage map has no value for a required argument."""


class Budget:
    """A cap on one count: `spend(k)` adds k to `used` and raises
    CapExceeded, "<what> exceeded <cap> <unit>", once `used` passes `cap`."""

    def __init__(self, what: str, cap: int, unit: str):
        self.what, self.cap, self.unit, self.used = what, cap, unit, 0

    def spend(self, k: int) -> None:
        self.used += k
        if self.used > self.cap:
            raise CapExceeded(f"{self.what} exceeded {self.cap} {self.unit}")
