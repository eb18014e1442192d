"""Risk-change interval for deleting one point, and the privacy-budget floor.

For a point v with residual r_v = y_v - <x_v, w>, let g = s_yx - s_xx w,
G = ||g||_2 and N_v = ||r_v x_v - g||_2, the numerator of the scan's d_v.
The triangle inequality gives G - N_v <= |r_v| ||x_v||_2 <= G + N_v, so

    base - half   <=   (L0 - |r_v|) / (n-1)   <=   base + half

    base = L0 / (n-1) - G / ((n-1) ||x_v||_2)
    half = N_v / ((n-1) ||x_v||_2)

with L0 = L(w; D0) the empirical risk.  The interval is in numerator
units, so it is the same under both SNR conventions; under ``paper`` the
half-width is the printed t C, with t = d_v and
C = sigma / ||x_v||_2 * sqrt(gamma / (2 (n-1))).  The norm-floor variant
replaces ||x_v||_2 by a dataset-wide lower bound B.

Each point's actual change is read two ways, each with a containment
flag: A, the squared loss (L0 - r_v^2) / (n-1), and B, the absolute
residual above.  ``contained_b`` is a theorem for the per-point variant
at d >= 2, where r_v x_v is parallel to g only by accident, so both
sides are strict; the tests find it true on every random row.  The rest
is not: ``contained_a`` bounds the squared loss with an interval derived
for the absolute residual; under the floor variant, B <= ||x_v|| keeps
the lower end below the change but moves the upper end down wherever
G > N_v; and at d = 1 one side of the inequality is an equality, so
there the flag reads the rounding of the two sides.

The privacy-budget floor after deleting a point with membership error
eps_v is

    max(ln[Phi(Phi_inv(alpha) - eps_v) + 1 - alpha], 0)

nonincreasing in eps_v and identically 0 for eps_v >= 0.  It is computed
as max(log1p(D), 0) with D = Phi(Phi_inv(alpha) - eps_v) - alpha, so 1 + D
is never rounded; near the target D is the series of ``snr._target_gap``,
so a tiny |eps_v| keeps its precision too.

``bounds_arrays`` evaluates all of this for every point in one O(n) pass
over the columns of ``snr.scan_arrays``: its numerators, the residuals
in the scan kernel's column order, ||x_v|| and g, so the interval
divides by the ``feature_norm`` column that selection ranks by, and L0 is
the mean of the squared residuals that the actual changes use.  Its
safety checks run on the whole array before any row is computed, so one
zero feature vector (per-point variant) rejects the whole call with
ZeroFeatureNorm naming that point's position as its id.  An empirical
risk or interval endpoint that overflows float64 raises NumericOverflow.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import _check_alpha
from .errors import (DomainError, FloorViolated, NumericOverflow,
                     ZeroFeatureNorm)
from .gauss import phi_inv
from .snr import _gap


def bounds_arrays(scan: dict, alpha: float, b: Optional[float] = None) -> dict:
    """Risk-change interval, actual changes and privacy floor per point.

    ``scan`` is the dict of ``snr.scan_arrays``; its numerator,
    feature_norm, residual, g and eps_v are read, and ``alpha`` is the
    Type I error of its eps_v.  ``b`` selects the norm-floor variant with
    floor B, which must satisfy 0 < B <= min_i ||x_i||_2.

    Keys, each an array over the points in dataset order: lower, upper,
    actual_delta, contained_a, contained_b, privacy_floor.
    """
    norms, r = scan["feature_norm"], scan["residual"]
    n = norms.size
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

    # overflow is detected from the results, as in core._stats_from_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        lv = r * r
        l0 = float(np.mean(lv))
        den = (n - 1) * scale
        base = l0 / (n - 1) - float(np.linalg.norm(scan["g"])) / den
        half = scan["numerator"] / den
        lower, upper = base - half, base + half
    if not np.isfinite(l0):
        raise NumericOverflow("empirical risk overflows float64")
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise NumericOverflow("risk-change interval overflows float64")
    da = (l0 - lv) / (n - 1)
    db = (l0 - np.sqrt(lv)) / (n - 1)
    return {
        "lower": lower,
        "upper": upper,
        "actual_delta": da,
        "contained_a": (lower <= da) & (da <= upper),
        "contained_b": (lower <= db) & (db <= upper),
        "privacy_floor": privacy_floor(scan["eps_v"], alpha),
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
