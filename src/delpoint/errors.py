"""The two errors every delpoint module raises, one per CLI exit code."""


class DelpointError(Exception):
    """An input the analysis cannot take (exit 2); the message names it."""


class NumericOverflow(DelpointError, ArithmeticError):
    """A computed quantity, such as a sufficient statistic, is not finite,
    or final weights lie too close together for float64 histogram edges
    (exit 4)."""
