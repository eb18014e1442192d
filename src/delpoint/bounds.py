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

``bounds_arrays`` evaluates all of this for many points in one O(n d)
pass: L0, ||s_yx - s_xx w||, the target, Phi_inv(alpha), the feature norms
and the floor check are computed once, every per-point quantity as one
array operation.  The single-point functions are one-row calls of it.
Its safety checks run on the whole array before any row is computed, so
one zero feature vector (per-point variant) rejects the whole call with
ZeroFeatureNorm naming that point's id.

Two arithmetic choices keep every value bit-identical to evaluating the
point on its own (a vector dot product per point, ``math.log``): feature
norms and residuals come from batched (1 x d)(d x 1) products, which sum
each row in the same order as a vector dot product (``X @ w``, einsum and
``(X*X).sum(1)`` do not, and move some values by an ulp), and the floor's
logarithm is ``math.log`` per element (``np.log`` differs from it in the
last ulp on some inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, HyperParams
from .errors import (
    DimensionMismatch,
    DomainError,
    FloorViolated,
    IndexOutOfRange,
    WouldEmptyDataset,
    ZeroFeatureNorm,
)
from .gauss import phi, phi_inv
from .lossgrad import as_weights, risk
from .snr import advantage_target


@dataclass(frozen=True)
class RiskBounds:
    """Risk-change interval plus the dual-interpretation actuals."""

    lower: float
    upper: float
    constant: float                 # C (per_point) or D (norm_floor)
    variant: str                    # "per_point" | "norm_floor"
    b_floor: Optional[float]        # B, only for norm_floor
    actual_delta: float             # interpretation A: squared-loss change
    abs_residual_delta: float       # interpretation B: absolute-residual form
    contained_a: bool
    contained_b: bool
    change_nonnegative: bool


@dataclass(frozen=True)
class PrivacyFloor:
    """Lower bound on the privacy budget consumed by one deletion."""

    eps_lower: float


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


def _row_dots(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<X[i], v[i]> per row (``v`` may also be one vector for every row).

    A batch of (1 x d)(d x 1) products sums each row in the same order as
    the dot product of two vectors, so row i is bit-identical to
    ``X[i] @ v[i]``; ``X @ w`` and einsum sum in other orders.
    """
    return np.matmul(X[:, None, :], v[..., :, None])[:, 0, 0]


def _feature_norms(X: np.ndarray) -> np.ndarray:
    """||x_i||_2 per row, bit-identical to np.linalg.norm of each row."""
    return np.sqrt(_row_dots(X, X))


def _privacy_floor_column(eps_v: np.ndarray, alpha: float) -> np.ndarray:
    if not (0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie in (0, 0.5), got {alpha}")
    arg = phi(phi_inv(alpha) - eps_v) + 1.0 - alpha
    raw = np.array([math.log(v) for v in arg.tolist()], dtype=np.float64)
    return np.maximum(raw, 0.0)


def bounds_arrays(ds: Dataset, w, hp: HyperParams, eps_v,
                  b: Optional[float] = None, positions=None) -> dict:
    """Risk-change interval, actual changes and privacy floor per point.

    ``eps_v[k]`` is the membership error of the point at ``positions[k]``
    (default: every position in dataset order, matching the ``eps_v``
    column of ``snr.scan_arrays``).  ``b`` selects the norm-floor variant
    with floor B, which must satisfy 0 < B <= min_i ||x_i||_2 over the
    whole dataset.

    Keys, each an array aligned with ``positions``: lower, upper,
    constant, actual_delta, abs_residual_delta, contained_a, contained_b,
    change_nonnegative, privacy_floor.
    """
    w = as_weights(w, ds.dim)
    if ds.n < 2:
        raise WouldEmptyDataset("risk-change bounds need n >= 2")
    if positions is None:
        pos = np.arange(ds.n)
    else:
        pos = np.asarray(positions, dtype=np.int64).reshape(-1)
    eps_v = np.asarray(eps_v, dtype=np.float64).reshape(-1)
    if eps_v.shape != pos.shape:
        raise DimensionMismatch(
            f"{eps_v.size} eps_v values for {pos.size} positions")
    outside = np.flatnonzero((pos < 0) | (pos >= ds.n))
    if outside.size:
        raise IndexOutOfRange(
            f"index {int(pos[outside[0]])} outside [0, {ds.n})")
    X = ds.X[pos]
    if b is None:
        scale = _feature_norms(X)
        zero = np.flatnonzero(scale == 0.0)
        if zero.size:
            raise ZeroFeatureNorm(
                f"point id {int(ds.ids[pos[zero[0]]])} has a zero feature "
                f"vector; per-point bounds divide by ||x_v||")
    else:
        b = float(b)
        if not b > 0.0:
            raise FloorViolated(f"B must be positive, got {b}")
        norms = _feature_norms(ds.X)
        k = int(np.argmin(norms))
        if norms[k] < b:
            raise FloorViolated(
                f"B = {b} exceeds the smallest feature norm {float(norms[k])} "
                f"(point id {int(ds.ids[k])})")
        scale = b

    l0 = risk(w, ds)
    g_norm = float(np.linalg.norm(ds.stats.s_yx - ds.stats.s_xx @ w))
    t = eps_v + advantage_target(hp.alpha)
    lower, upper, c = interval_endpoints(
        l0, t, hp.sigma, hp.gamma, ds.n, scale, g_norm)
    resid = ds.y[pos] - _row_dots(X, w)
    lv = resid * resid
    da = (l0 - lv) / (ds.n - 1)
    db = (l0 - np.sqrt(lv)) / (ds.n - 1)
    return {
        "lower": lower,
        "upper": upper,
        "constant": np.broadcast_to(c, pos.shape),
        "actual_delta": da,
        "abs_residual_delta": db,
        "contained_a": (lower <= da) & (da <= upper),
        "contained_b": (lower <= db) & (db <= upper),
        "change_nonnegative": da >= 0.0,
        "privacy_floor": _privacy_floor_column(eps_v, hp.alpha),
    }


def _one_row(cols: dict, variant: str, b_floor: Optional[float]) -> RiskBounds:
    return RiskBounds(
        lower=float(cols["lower"][0]),
        upper=float(cols["upper"][0]),
        constant=float(cols["constant"][0]),
        variant=variant,
        b_floor=b_floor,
        actual_delta=float(cols["actual_delta"][0]),
        abs_residual_delta=float(cols["abs_residual_delta"][0]),
        contained_a=bool(cols["contained_a"][0]),
        contained_b=bool(cols["contained_b"][0]),
        change_nonnegative=bool(cols["change_nonnegative"][0]),
    )


def risk_change_bounds(ds: Dataset, index: int, w, hp: HyperParams,
                       eps_v: float) -> RiskBounds:
    """Per-point interval with C = sigma/||x_v|| * sqrt(gamma/(2(n-1)))."""
    cols = bounds_arrays(ds, w, hp, [eps_v], positions=[index])
    return _one_row(cols, "per_point", None)


def risk_change_bounds_floor(ds: Dataset, index: int, w, hp: HyperParams,
                             eps_v: float, b: float) -> RiskBounds:
    """Norm-floor interval with D = sigma/B * sqrt(gamma/(2(n-1))).

    Requires 0 < B <= min_i ||x_i||_2 over the whole dataset.
    """
    cols = bounds_arrays(ds, w, hp, [eps_v], b=b, positions=[index])
    return _one_row(cols, "norm_floor", float(b))


def privacy_floor(eps_v: float, alpha: float) -> PrivacyFloor:
    """max(ln[Phi(Phi_inv(alpha) - eps_v) + 1 - alpha], 0)."""
    column = _privacy_floor_column(np.array([eps_v], dtype=np.float64), alpha)
    return PrivacyFloor(eps_lower=float(column[0]))
