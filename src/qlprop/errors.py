"""Exception types shared across the package.

Every error raised by the library derives from :class:`QlpropError`, so
callers (including the command line front end) can catch one base class
and report the concrete class name.  ``ParseError`` carries the character
offset of the failure and, when known, a short description of what was
expected there.
"""

from __future__ import annotations

__all__ = [
    "QlpropError", "ParseError", "UnknownConnective",
    "ClassicalConnectiveInTQ", "SchemaError", "DuplicateId",
    "ExtensionOutOfUniverse", "HilbertDimensionMismatch",
    "NonOrthonormalBasis", "InvalidTolerance", "EnumerationCapExceeded",
    "UniverseTooSmall", "RankError", "UnknownProperty", "ForallMismatch",
    "DepthCapExceeded", "InvalidDepth", "NotAPartialOrder", "MeetJoinMissing",
    "SearchCapExceeded", "DimensionMismatch", "NoHilbertAnnotation",
    "NotOperationClosed", "ClosureCapExceeded", "NotPDecidable",
    "ThetaNotInjectiveWarning", "WitnessMismatchWarning",
]


class QlpropError(Exception):
    """Base class for all library errors."""


class ParseError(QlpropError):
    """A formula failed to parse.

    ``position`` is a 0-based character offset into the input string;
    ``expected`` optionally names the token class that would have been
    accepted.
    """

    def __init__(self, message: str, position: int, expected: str | None = None):
        super().__init__(message)
        self.message = message
        self.position = position
        self.expected = expected

    def __str__(self) -> str:
        s = f"{self.message} at position {self.position}"
        if self.expected is not None:
            s += f" (expected {self.expected})"
        return s


class UnknownConnective(ParseError):
    """A quantum-only connective appeared in classical input."""


class ClassicalConnectiveInTQ(ParseError):
    """A classical-only connective appeared in quantum input."""


class SchemaError(QlpropError):
    """A model description is malformed (bad JSON, unknown or missing keys)."""


class DuplicateId(SchemaError):
    """A state, object or property identifier is repeated."""


class ExtensionOutOfUniverse(SchemaError):
    """An extension mentions an object outside the state's universe."""


class HilbertDimensionMismatch(SchemaError):
    """A vector or basis does not match the declared dimension."""


class NonOrthonormalBasis(SchemaError):
    """A stored basis is not orthonormal to rounding (within ``MIN_TOL``)."""


class InvalidTolerance(QlpropError):
    """A containment tolerance is not a finite number in the accepted range."""


class EnumerationCapExceeded(QlpropError):
    """The interpretation count exceeds the configured cap."""


class UniverseTooSmall(QlpropError):
    """A universe cannot host a proper nonempty extension."""


class RankError(QlpropError):
    """A subspace has unexpected rank (e.g. a ray given a zero vector)."""


class UnknownProperty(QlpropError):
    """A formula or lookup mentions a property the model does not declare."""


class ForallMismatch(QlpropError):
    """The universally quantified proposition disagrees with the per-state
    physical proposition (an internal consistency check failed)."""


class DepthCapExceeded(QlpropError):
    """A requested formula depth exceeds ``semantics.DEPTH_CAP``."""


class InvalidDepth(QlpropError):
    """A requested formula depth is below 1, so no formula has it."""


class _WithWitness(QlpropError):
    """An error that names the offending item as its ``witness``."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class NotAPartialOrder(_WithWitness):
    """A relation fails reflexivity, antisymmetry or transitivity."""


class MeetJoinMissing(_WithWitness):
    """A poset lacks a greatest lower / least upper bound for some pair."""


class SearchCapExceeded(QlpropError):
    """An isomorphism search was attempted on too large a structure."""


class DimensionMismatch(QlpropError):
    """Two subspaces (or a vector and a space) live in different dimensions."""


class NoHilbertAnnotation(QlpropError):
    """A quantum operation was requested on a model without Hilbert data."""


class NotOperationClosed(_WithWitness):
    """The declared properties are not closed under a subspace operation."""


class ClosureCapExceeded(QlpropError):
    """Subspace closure generation grew past the configured cap."""


class NotPDecidable(QlpropError):
    """An assertive formula lies outside the translatable fragment."""


class ThetaNotInjectiveWarning(UserWarning):
    """Two different properties induce the same certain-state set."""


class WitnessMismatchWarning(UserWarning):
    """A classically computed proposition differs from the certain-state
    set of its witness property."""
