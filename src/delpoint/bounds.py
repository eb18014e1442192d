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

nonincreasing in eps_v and identically 0 for eps_v >= 0.  It is computed
as max(log1p(D), 0) with D = Phi(Phi_inv(alpha) - eps_v) - alpha, so 1 + D
is never rounded; near the target D is the series of ``snr._target_gap``,
so a tiny |eps_v| keeps its precision too.

``bounds_arrays`` evaluates all of this for every point in one O(n) pass
over the columns of ``snr.scan_arrays``: the residuals y_v - <x_v, w>
and ||x_v|| in the scan kernel's column order, and g = s_yx - s_xx w, so
the interval divides by the ``feature_norm`` column that selection ranks
by, and the empirical risk L0 = L(w; D0) is the mean of the squared
residuals that the actual changes use.  Its safety checks run on the
whole array before any row is computed, so one zero feature vector
(per-point variant) rejects the whole call with ZeroFeatureNorm naming
that point's position as its id.  An empirical risk or interval endpoint
that overflows float64 raises NumericOverflow.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import HyperParams, _check_alpha
from .errors import (
    DimensionMismatch,
    DomainError,
    FloorViolated,
    InvalidValue,
    NumericOverflow,
    ZeroFeatureNorm,
)
from .gauss import phi_inv
from .snr import _gap


def bounds_arrays(scan: dict, hp: HyperParams,
                  b: Optional[float] = None) -> dict:
    """Risk-change interval, actual changes and privacy floor per point.

    ``scan`` is the dict of ``snr.scan_arrays`` for the same ``hp``; its
    eps_v, feature_norm, residual, g and target are read, and its eps_v
    must hold one finite membership error per point.  ``b`` selects the
    norm-floor variant with floor B, which must satisfy
    0 < B <= min_i ||x_i||_2.

    Keys, each an array over the points in dataset order: lower, upper,
    constant, actual_delta, abs_residual_delta, contained_a, contained_b,
    change_nonnegative, privacy_floor.
    """
    norms, r = scan["feature_norm"], scan["residual"]
    n = norms.size
    eps_v = np.asarray(scan["eps_v"], dtype=np.float64).reshape(-1)
    if eps_v.size != n:
        raise DimensionMismatch(f"{eps_v.size} eps_v values for {n} points")
    if not np.isfinite(eps_v).all():
        raise InvalidValue("eps_v values must be finite")
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

    t = eps_v + scan["target"]
    # overflow is detected from the results, as in core._stats_from_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        lv = r * r
        l0 = float(np.mean(lv))
        g_norm = float(np.linalg.norm(scan["g"]))
        c = hp.sigma / scale * math.sqrt(hp.gamma / (2.0 * (n - 1)))
        base = l0 / (n - 1) - g_norm / ((n - 1) * scale)
        lower, upper = base - t * c, base + t * c
    if not np.isfinite(l0):
        raise NumericOverflow("empirical risk overflows float64")
    if np.any(t < 0.0):
        raise DomainError(f"eps_v + target must be >= 0, got {float(t.min())}")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise NumericOverflow("risk-change interval overflows float64")
    da = (l0 - lv) / (n - 1)
    db = (l0 - np.sqrt(lv)) / (n - 1)
    return {
        "lower": lower,
        "upper": upper,
        "constant": np.broadcast_to(c, eps_v.shape),
        "actual_delta": da,
        "abs_residual_delta": db,
        "contained_a": (lower <= da) & (da <= upper),
        "contained_b": (lower <= db) & (db <= upper),
        "change_nonnegative": da >= 0.0,
        "privacy_floor": privacy_floor(eps_v, hp.alpha),
    }


def privacy_floor(eps_v, alpha: float):
    """Budget floor max(ln[Phi(Phi_inv(alpha) - eps_v) + 1 - alpha], 0),
    elementwise: an array of eps_v gives an array, a float a float.
    Raises DomainError if any eps_v is not finite."""
    _check_alpha(alpha)
    eps = np.asarray(eps_v, dtype=np.float64)
    bad = eps[~np.isfinite(eps)]
    if bad.size:
        raise DomainError(f"eps_v must be finite, got {float(bad[0])}")
    z = phi_inv(alpha)
    floor = np.maximum(np.log1p(_gap(eps, z - eps, z, alpha)), 0.0)
    return floor if eps.ndim else float(floor)
