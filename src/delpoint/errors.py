"""Exception hierarchy shared by every delpoint module."""


class DelpointError(Exception):
    """Base class for all errors raised by this package."""


class EmptyDataset(DelpointError):
    """An operation received a dataset (or point sequence) with no points."""


class WouldEmptyDataset(DelpointError):
    """A deletion (or deletion-dependent formula) would leave fewer than one point."""


class DimensionMismatch(DelpointError):
    """Feature vectors, weights, or matrices have incompatible dimensions."""


class InvalidValue(DelpointError):
    """A numeric input contains NaN or infinity where finite values are required."""


class DomainError(DelpointError):
    """A scalar argument lies outside the domain of the requested function."""


class DegenerateNoise(DelpointError):
    """sigma or gamma is zero where the signal-to-noise ratio is undefined."""


class ZeroFeatureNorm(DelpointError):
    """A bound that divides by ||x_v|| was requested for a zero feature vector."""


class FloorViolated(DelpointError):
    """The claimed feature-norm floor B is not a positive lower bound for all points."""


class TooManyDeletions(DelpointError):
    """A protocol asks for more deletion steps than the dataset can support."""


class NumericOverflow(DelpointError, ArithmeticError):
    """A computed quantity, such as a sufficient statistic, is not finite,
    or final weights lie too close together for float64 histogram edges."""


class EmptyInput(DelpointError):
    """A summary operation received an empty sample collection."""
