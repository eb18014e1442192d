"""Squared loss, empirical risk, and their gradients.

For the model y ~ <w, x> the individual loss is (y - <w, x>)^2 and the
empirical risk is the mean individual loss.  Gradients on full datasets go
through the cached sufficient statistics (O(d^2) regardless of n):

    grad_w L(w; D) = 2 (s_xx w - s_yx)

The deleted-dataset gradient uses the exact leave-one-out identity

    grad L(w; D \\ v) = n/(n-1) grad L(w; D) - 1/(n-1) grad l(w; v)
"""

from __future__ import annotations

import numpy as np

from .core import DataPoint, Dataset
from .errors import DimensionMismatch, IndexOutOfRange, InvalidValue, WouldEmptyDataset


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


def point_loss(w, v: DataPoint) -> float:
    """(y - <w, x>)^2 for one point."""
    w = as_weights(w, v.dim)
    r = v.y - float(w @ v.x)
    return r * r


def point_grad(w, v: DataPoint) -> np.ndarray:
    """-2 (y - <w, x>) x for one point."""
    w = as_weights(w, v.dim)
    r = v.y - float(w @ v.x)
    return -2.0 * r * v.x


def risk(w, ds: Dataset) -> float:
    """Mean individual loss over the dataset."""
    w = as_weights(w, ds.dim)
    r = ds.y - ds.X @ w
    return float(np.mean(r * r))


def risk_grad(w, ds: Dataset) -> np.ndarray:
    """Mean-loss gradient from sufficient statistics: 2 (s_xx w - s_yx)."""
    w = as_weights(w, ds.dim)
    return 2.0 * (ds.stats.s_xx @ w - ds.stats.s_yx)


def deleted_grad(w, ds: Dataset, index: int) -> np.ndarray:
    """Gradient of the risk with the point at ``index`` removed.

    Uses the leave-one-out identity above; agrees with recomputing the
    gradient on the physically deleted dataset to 1e-10.
    """
    if ds.n < 2:
        raise WouldEmptyDataset("deleted gradient needs at least two points")
    if not 0 <= index < ds.n:
        raise IndexOutOfRange(f"index {index} outside [0, {ds.n})")
    n = ds.n
    g_full = risk_grad(w, ds)
    g_point = point_grad(w, ds.point(index))
    return (n * g_full - g_point) / (n - 1)
