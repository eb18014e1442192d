"""Risk-change interval for deleting one point, and the privacy-budget floor.

For a point with membership error eps_v (so t = eps_v + target is its d_v)
the deletion-induced risk change is bracketed by

    base - t * C   <=   change   <=   base + t * C

    base = L(w; D0) / (n-1) - ||s_yx - s_xx w||_2 / ((n-1) ||x_v||_2)
    C    = sigma / ||x_v||_2 * sqrt(gamma / (2 (n-1)))

The norm-floor variant replaces ||x_v||_2 by a dataset-wide lower bound B
(constant D instead of C).  The interval width 2 t C shrinks with t, which
is why near-target candidates with small feature norms are preferred.

Caveat, reported rather than silently resolved: the derivation of this
interval treats the bounded per-point quantity as the absolute residual
|y_v - <x_v, w>| in one step while the loss is its square.  Both readings
of the actual change are therefore emitted:

    interpretation A (squared loss):     (L0 - (y_v - <x_v,w>)^2) / (n-1)
    interpretation B (absolute residual): (L0 - |y_v - <x_v,w>|) / (n-1)

together with a containment flag for each.  The derivation also assumes
the change is nonnegative, which fails exactly for points whose loss
exceeds the mean; ``change_nonnegative`` flags that per point.

The privacy-budget floor after deleting a point with membership error
eps_v is

    max(ln[Phi(Phi_inv(alpha) - eps_v) + 1 - alpha], 0)

nonincreasing in eps_v and identically 0 for eps_v >= 0.

``bounds_arrays`` evaluates all of this for every point in one O(n d)
pass, on the scan's arithmetic: ||x_v|| is snr.feature_norms, the
``feature_norm`` column that selection ranks by, and the residuals are
y - X @ w.  Its safety checks run on the whole array before any row is
computed, so one zero feature vector (per-point variant) rejects the whole
call with ZeroFeatureNorm naming that point's position as its id.  An
empirical risk or interval endpoint that overflows float64 raises
NumericOverflow.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import Dataset, HyperParams
from .errors import (
    DimensionMismatch,
    DomainError,
    FloorViolated,
    InvalidValue,
    NumericOverflow,
    WouldEmptyDataset,
    ZeroFeatureNorm,
)
from .gauss import phi, phi_inv
from .lossgrad import as_weights, risk
from .snr import _check_alpha, advantage_target, feature_norms


def interval_endpoints(l0: float, t, sigma: float, gamma: float,
                       n: int, scale_norm, g_norm: float):
    """Endpoints and constant of the interval for explicit arguments.

    ``t`` and ``scale_norm`` may be arrays (elementwise over points) or
    scalars.  ``scale_norm`` is ||x_v||_2 for the per-point variant or B
    for the norm-floor variant.  Exposed separately so monotonicity in the
    individual arguments can be checked without rebuilding datasets.
    """
    if n < 2:
        raise WouldEmptyDataset("risk-change bounds need n >= 2")
    scale_norm = np.asarray(scale_norm, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(scale_norm <= 0.0):
        raise ZeroFeatureNorm("bounds divide by a positive feature norm")
    if np.any(t < 0.0):
        raise DomainError(f"eps_v + target must be >= 0, got {float(t.min())}")
    c = sigma / scale_norm * math.sqrt(gamma / (2.0 * (n - 1)))
    base = l0 / (n - 1) - g_norm / ((n - 1) * scale_norm)
    return base - t * c, base + t * c, c


def _privacy_floor_column(eps_v: np.ndarray, alpha: float) -> np.ndarray:
    _check_alpha(alpha)
    return np.maximum(np.log(phi(phi_inv(alpha) - eps_v) + 1.0 - alpha), 0.0)


def bounds_arrays(ds: Dataset, w, hp: HyperParams, eps_v,
                  b: Optional[float] = None) -> dict:
    """Risk-change interval, actual changes and privacy floor per point.

    ``eps_v`` holds the n finite membership errors in dataset order, the
    ``eps_v`` column of ``snr.scan_arrays``.  ``b`` selects the norm-floor
    variant with floor B, which must satisfy 0 < B <= min_i ||x_i||_2.

    Keys, each an array over the points in dataset order: lower, upper,
    constant, actual_delta, abs_residual_delta, contained_a, contained_b,
    change_nonnegative, privacy_floor.
    """
    w = as_weights(w, ds.dim)
    if ds.n < 2:
        raise WouldEmptyDataset("risk-change bounds need n >= 2")
    eps_v = np.asarray(eps_v, dtype=np.float64).reshape(-1)
    if eps_v.size != ds.n:
        raise DimensionMismatch(f"{eps_v.size} eps_v values for {ds.n} points")
    if not np.isfinite(eps_v).all():
        raise InvalidValue("eps_v values must be finite")
    norms = feature_norms(ds.X)
    if b is None:
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroFeatureNorm(
                f"point id {int(zero[0])} has a zero feature "
                f"vector; per-point bounds divide by ||x_v||")
        scale = norms
    else:
        b = float(b)
        if not b > 0.0:
            raise FloorViolated(f"B must be positive, got {b}")
        k = int(np.argmin(norms))
        if norms[k] < b:
            raise FloorViolated(
                f"B = {b} exceeds the smallest feature norm {float(norms[k])} "
                f"(point id {k})")
        scale = b

    l0 = risk(w, ds)
    t = eps_v + advantage_target(hp.alpha)
    # overflow is detected from the results, as in core._stats_from_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        g_norm = float(np.linalg.norm(ds.s_yx - ds.s_xx @ w))
        lower, upper, c = interval_endpoints(
            l0, t, hp.sigma, hp.gamma, ds.n, scale, g_norm)
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise NumericOverflow("risk-change interval overflows float64")
    resid = ds.y - ds.X @ w
    lv = resid * resid
    da = (l0 - lv) / (ds.n - 1)
    db = (l0 - np.sqrt(lv)) / (ds.n - 1)
    return {
        "lower": lower,
        "upper": upper,
        "constant": np.broadcast_to(c, eps_v.shape),
        "actual_delta": da,
        "abs_residual_delta": db,
        "contained_a": (lower <= da) & (da <= upper),
        "contained_b": (lower <= db) & (db <= upper),
        "change_nonnegative": da >= 0.0,
        "privacy_floor": _privacy_floor_column(eps_v, hp.alpha),
    }


def privacy_floor(eps_v: float, alpha: float) -> float:
    """Budget floor max(ln[Phi(Phi_inv(alpha) - eps_v) + 1 - alpha], 0)."""
    column = _privacy_floor_column(np.array([eps_v], dtype=np.float64), alpha)
    return float(column[0])
