"""Squared loss: weight validation and the empirical risk.

For the model y ~ <w, x> the individual loss is (y - <w, x>)^2 and the
empirical risk is the mean individual loss.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset
from .errors import DimensionMismatch, InvalidValue, NumericOverflow


def as_weights(w, dim: int) -> np.ndarray:
    """Validate and convert a weight vector against a feature dimension."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionMismatch(f"weights must be a vector, got shape {w.shape}")
    if w.shape[0] != dim:
        raise DimensionMismatch(f"weights have dim {w.shape[0]}, data has {dim}")
    if not np.all(np.isfinite(w)):
        raise InvalidValue("weights must be finite")
    return w


def risk(w, ds: Dataset) -> float:
    """Mean individual loss over the dataset; NumericOverflow if not finite."""
    w = as_weights(w, ds.dim)
    # overflow is detected from the result, as in core._stats_from_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        r = ds.y - ds.X @ w
        mean = float(np.mean(r * r))
    if not np.isfinite(mean):
        raise NumericOverflow("empirical risk overflows float64")
    return mean

