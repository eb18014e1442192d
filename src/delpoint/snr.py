"""Whole-dataset scan of the deletion signal-to-noise ratio, and the
membership advantage.

Deleting point v = (x_v, y_v) perturbs the one-step update distribution by
an amount summarized in the scalar

    d_v = ||(y_v - <x_v, w>) x_v - (s_yx - s_xx w)||_2 / denom(n)

The numerator is the residual-factored form of
||y_v x_v - s_yx + s_xx w - x_v x_v^T w||_2; it never forms the d x d outer
product, so a whole-dataset scan is O(n d) after one O(d^2) precompute of
s_xx @ w.

Two denominator conventions are supported:

* ``paper``       denom = sqrt(gamma (n-1) / 2) * sigma; the default
                  everywhere and the form the selection target is stated in.
* ``consistent``  denom = (n-1) sigma / 2, equivalently
                  d_v = ||mu(D1) - mu(D0)||_2 / (gamma sigma) for the
                  simulated update means mu(D) = -gamma grad L(w; D).  This
                  is the separation that actually governs the likelihood
                  ratio test on simulated updates, and the one the test
                  suite's Monte Carlo advantage estimator converges to.

The membership advantage of a separation d at Type I error alpha is

    |Adv| = |Phi(-Phi_inv(alpha) - d) - alpha|

which vanishes exactly at d = -2 Phi_inv(alpha), equal to
2 Phi_inv(1 - alpha); the membership error eps_v = d_v + 2 Phi_inv(alpha),
the ``eps_v`` column of ``scan_arrays``, measures the signed distance to
that null point.  Both are computed from the lower tail, where alpha keeps
its full precision however small it is.

Near the target the advantage is a small difference of numbers close to
alpha.  Where |eps_v| (|z| + |eps_v|) <= 1, with z = Phi_inv(alpha), it is
summed instead as the series

    Phi(z - eps_v) - alpha = -pdf(z) sum_{k>=1} He_{k-1}(z) eps_v^k / k!

in the probabilists' Hermite polynomials He, which keeps its full relative
precision however small eps_v is.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import _row_norms, scan_norms
from .core import Dataset, HyperParams, _check_alpha, as_weights
from .errors import (DegenerateNoise, DomainError, NumericOverflow,
                     WouldEmptyDataset)
from .gauss import _INV_SQRT_2PI, phi, phi_inv


def advantage_target(alpha: float) -> float:
    """The separation -2 Phi_inv(alpha) = 2 Phi_inv(1 - alpha) at which the
    advantage is zero."""
    _check_alpha(alpha)
    return -2.0 * phi_inv(alpha)


def snr_denominator(n: int, hp: HyperParams) -> float:
    """Noise normalization for a dataset of n points under hp's convention.

    Raises DegenerateNoise when it is 0: sigma or gamma is 0, or their
    product underflows.
    """
    if n < 2:
        raise WouldEmptyDataset("signal-to-noise ratio needs n >= 2")
    if hp.sigma == 0.0 or hp.gamma == 0.0:
        raise DegenerateNoise("d_v is undefined for sigma = 0 or gamma = 0")
    if hp.snr_convention == "consistent":
        denom = (n - 1) * hp.sigma / 2.0
    else:
        denom = math.sqrt(hp.gamma * (n - 1) / 2.0) * hp.sigma
    if denom == 0.0:
        raise DegenerateNoise(
            f"d_v is undefined: the noise scale of gamma = {hp.gamma!r}, "
            f"sigma = {hp.sigma!r} underflows to 0 ({hp.snr_convention} "
            f"convention, n = {n})")
    return denom


def membership_advantage(d, alpha: float):
    """|Phi(-Phi_inv(alpha) - d) - alpha| for separations d >= 0.

    Elementwise: an array of separations gives an array, a float gives a
    float.  Raises DomainError if any separation is negative or not finite.
    """
    _check_alpha(alpha)
    arr = np.asarray(d, dtype=np.float64)
    bad = arr[~(np.isfinite(arr) & (arr >= 0.0))]
    if bad.size:
        raise DomainError(
            f"separation must be finite and >= 0, got {float(bad[0])}")
    z = phi_inv(alpha)
    adv = np.abs(_gap(arr - advantage_target(alpha), -z - arr, z, alpha))
    return adv if arr.ndim else float(adv)


_GAP_TERMS = 30


def _gap(eps, far, z: float, alpha: float):
    """Phi(z - eps) - alpha for the membership errors eps, z = Phi_inv(alpha).

    Near the target it is the series of _target_gap; elsewhere it is
    phi(far) - alpha, with phi evaluated at those entries only.  ``far``
    holds each entry's argument of Phi, z - eps, as the caller rounds it,
    so each caller's column keeps its own bits.
    """
    near, gap = _target_gap(eps, z)
    out = np.empty_like(eps)
    out[near] = gap
    out[~near] = phi(far[~near]) - alpha
    return out


def _target_gap(eps, z: float):
    """Phi(z - eps) - alpha near the target, for z = Phi_inv(alpha).

    Returns the mask of the membership errors eps with
    |eps| (|z| + |eps|) <= 1 and, at those, the difference summed as
    -pdf(z) sum_{k>=1} He_{k-1}(z) eps^k / k!, without cancellation.  In
    that region the terms after the 30th add less than 1e-18 of the sum.
    """
    # |eps| capped at 2 leaves the mask as it is (it is false above 1) and
    # keeps the product finite for any eps
    a = np.minimum(np.abs(eps), 2.0)
    near = a * (abs(z) + a) <= 1.0
    e = eps[near]
    # coef[k - 1] = He_{k-1}(z) / k!, from g_n = He_n(z) / n!, where
    # g_{n+1} = (z g_n - g_{n-1}) / (n + 1)
    coef = [1.0]
    g_prev, g = 1.0, z
    for n in range(1, _GAP_TERMS):
        coef.append(g / (n + 1))
        g_prev, g = g, (z * g - g_prev) / (n + 1)
    total = np.full_like(e, coef[-1])
    for c in reversed(coef[:-1]):
        total *= e
        total += c
    total *= e
    return near, -_INV_SQRT_2PI * math.exp(-0.5 * z * z) * total


def scan_arrays(ds: Dataset, w, hp: HyperParams):
    """One-pass scores for every point, as a dict of aligned arrays.

    Keys: index (each position, 0..n-1), d_v, eps_v, distance,
    feature_norm, numerator, residual, g (the (d,) vector s_yx - s_xx w),
    target (a float).  One s_xx @ w precompute serves all n points, and no
    Phi is evaluated.  feature_norm is feature_norms(ds.X), the ||x_v||
    that selection ranks by; numerator is ||r_v x_v - g||, d_v before its
    division by the denominator; residual is r_v = y_v - <x_v, w> in the
    kernel's column order.  bounds.bounds_arrays reads feature_norm,
    numerator, residual and g from here.  Raises NumericOverflow when a
    score or feature norm is not finite.
    """
    w = as_weights(w, ds.dim)
    fnorm = feature_norms(ds.X)
    # separate arrays, so that a caller keeping one column keeps no more;
    # d_v goes to the kernel's third, free once it returns
    work = [np.empty(ds.n) for _ in range(3)]
    d_v, g = _scores(ds.X, ds.y, ds.s_yx, ds.s_xx, w,
                     snr_denominator(ds.n, hp), hp, work=work, out=work[2])
    target = advantage_target(hp.alpha)
    eps = d_v - target
    return {
        "index": np.arange(ds.n),
        "d_v": d_v,
        "eps_v": eps,
        "distance": np.abs(eps),
        "feature_norm": fnorm,
        "numerator": work[0],
        "residual": work[1],
        "g": g,
        "target": target,
    }


_OVERFLOW = ("candidate scores overflow: the feature and label magnitudes "
             "are too large for float64 norms")
_TINY_NORM = math.sqrt(np.finfo(np.float64).tiny)


def feature_norms(X) -> np.ndarray:
    """||x_i||_2 of every row of X, for selection, simulation and bounds.

    The squares are summed by columns in the order of the scan kernel.  A
    row whose norm is below sqrt(tiny), about 1.5e-154, is divided by its
    largest |x_ij| before squaring, so its squares do not underflow.
    Raises NumericOverflow when a norm is not finite.
    """
    # overflow is detected from the results, as in core._stats_from_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _row_norms(X)
    if not np.isfinite(norms).all():
        raise NumericOverflow(_OVERFLOW)
    small = np.flatnonzero(norms < _TINY_NORM)
    if small.size:
        top = np.abs(X[small]).max(axis=1)
        unit = X[small] / np.where(top > 0.0, top, 1.0)[:, None]
        norms[small] = top * _row_norms(unit)
    return norms


def _scores(X, y, s_yx, s_xx, w, denom, hp, dead=None, work=None, out=None):
    """d_v of every row of X, and g = s_yx - s_xx w, the kernel's g.

    ``w`` is (d,), or (K, d) with s_yx (K, d), s_xx (K, d, d) and denom
    (K, 1) batched alike; then d_v is (K, n).  Raises NumericOverflow when a
    d_v is not finite, except at the flat positions ``dead`` of d_v, the
    points already deleted; when a denominator is below 1, the message
    names it and the noise scale of ``hp``, the parameters it came from.
    ``work`` is scan_norms's.  d_v is written to ``out``, or by default
    over the numerators that scan_norms returns.
    """
    # overflow is detected from the results, as in core._stats_from_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        g = s_yx - np.matmul(s_xx, w[..., None])[..., 0]
        num = scan_norms(X, y, w, g, work)
        d_v = np.divide(num, denom, out=num if out is None else out)
        # d_v >= 0 or NaN, so one max is finite exactly when every d_v is
        top = d_v.max()
    if not np.isfinite(top):
        finite = np.isfinite(d_v)
        if dead is not None:
            finite.reshape(-1)[dead] = True
        if not finite.all():
            low = float(np.min(denom))
            if low < 1.0:  # then a finite norm can overflow when divided
                raise NumericOverflow(
                    f"candidate scores overflow: d_v is divided by {low!r}, "
                    f"the denominator of the noise scale gamma = "
                    f"{hp.gamma!r}, sigma = {hp.sigma!r} "
                    f"({hp.snr_convention} convention)")
            raise NumericOverflow(_OVERFLOW)
    return d_v, g

