"""Exception types shared across the toolkit."""

from __future__ import annotations


class FrameDualError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(FrameDualError):
    """Operands have incompatible member counts or ambient dimensions."""


class NotHermitianError(FrameDualError):
    """Matrix fails the Hermitian symmetry check."""


class NumericalFailureError(FrameDualError):
    """An underlying factorization did not converge."""


class EmptySpanError(FrameDualError):
    """Every member of a family is numerically zero."""


class NotParsevalError(FrameDualError):
    """A family required to be Parseval is not, beyond coarse tolerance."""


class NotParsevalComplementError(FrameDualError):
    """A family required to be Parseval for an orthogonal complement is not."""


class GateFailedError(FrameDualError):
    """A finite-dimensional applicability gate rejected the input."""


class HypothesisFailedError(FrameDualError):
    """A stated hypothesis of a construction does not hold for the input."""


class DimensionCaseError(FrameDualError):
    """The span deficit exceeds the coefficient kernel dimension, so no
    Parseval completion exists."""


class DeficitOrderError(FrameDualError):
    """The target deficit exceeds the source deficit; no coisometry exists."""


class NotInvertibleError(FrameDualError):
    """A map required to be invertible is numerically singular."""


class NotPositiveDefiniteError(FrameDualError):
    """A matrix required to be Hermitian positive definite is not."""


class BadCutoffError(FrameDualError):
    """An interleaving cutoff exceeds the family size."""


class NotTightError(FrameDualError):
    """A system required to be a tight frame is not."""


class CriticalDensityError(FrameDualError):
    """The lattice sits at critical density, where the construction is
    available only in the orthonormal (R-dual) regime."""


class BadLatticeError(FrameDualError):
    """Lattice steps do not divide the modulus or are out of range."""


class ZeroWindowError(FrameDualError):
    """The window vector is numerically zero."""


class FixtureParseError(FrameDualError):
    """A fixture file could not be parsed or fails validation."""
