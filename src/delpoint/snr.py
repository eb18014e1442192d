"""Per-point signal-to-noise ratio, membership advantage, membership error.

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
                  ratio test on simulated updates, and the one the
                  empirical advantage estimator converges to.

The membership advantage of a separation d at Type I error alpha is

    |Adv| = |Phi(Phi_inv(1 - alpha) - d) - alpha|

which vanishes exactly at d = 2 Phi_inv(1 - alpha); the absolute
membership error eps_v = d_v - 2 Phi_inv(1 - alpha) measures the signed
distance to that null point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import scan_norms
from .core import Dataset, HyperParams
from .errors import (DegenerateNoise, DomainError, IndexOutOfRange,
                     NumericOverflow, WouldEmptyDataset)
from .gauss import phi, phi_inv
from .lossgrad import as_weights


@dataclass(frozen=True)
class SnrValue:
    """Signal-to-noise ratio with its numerator/denominator factors."""

    d_v: float
    numerator: float
    denominator: float


@dataclass(frozen=True)
class CandidateScore:
    """Scan result for one point, keyed by its original id."""

    index: int
    d_v: float
    eps_v: float
    distance: float
    advantage: float
    feature_norm: float


def advantage_target(alpha: float) -> float:
    """The separation 2 Phi_inv(1 - alpha) at which the advantage is zero."""
    _check_alpha(alpha)
    return 2.0 * phi_inv(1.0 - alpha)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie in (0, 0.5), got {alpha}")


def snr_denominator(n: int, hp: HyperParams) -> float:
    """Noise normalization for a dataset of n points under hp's convention."""
    if n < 2:
        raise WouldEmptyDataset("signal-to-noise ratio needs n >= 2")
    if hp.sigma == 0.0 or hp.gamma == 0.0:
        raise DegenerateNoise("d_v is undefined for sigma = 0 or gamma = 0")
    if hp.snr_convention == "consistent":
        return (n - 1) * hp.sigma / 2.0
    return math.sqrt(hp.gamma * (n - 1) / 2.0) * hp.sigma


def snr_closed_form(ds: Dataset, index: int, w, hp: HyperParams) -> SnrValue:
    """d_v from sufficient statistics (the production path)."""
    w = as_weights(w, ds.dim)
    denom = snr_denominator(ds.n, hp)
    if not 0 <= index < ds.n:
        raise IndexOutOfRange(f"index {index} outside [0, {ds.n})")
    g = ds.stats.s_yx - ds.stats.s_xx @ w
    resid = float(ds.y[index] - ds.X[index] @ w)
    numer = float(np.linalg.norm(resid * ds.X[index] - g))
    return SnrValue(d_v=numer / denom, numerator=numer, denominator=denom)


def membership_advantage(d: float, alpha: float) -> float:
    """|Phi(Phi_inv(1 - alpha) - d) - alpha| for a separation d >= 0."""
    _check_alpha(alpha)
    if d < 0.0 or not np.isfinite(d):
        raise DomainError(f"separation must be finite and >= 0, got {d}")
    return abs(phi(phi_inv(1.0 - alpha) - d) - alpha)


def membership_error(d, alpha: float) -> float:
    """eps_v = d_v - 2 Phi_inv(1 - alpha); accepts an SnrValue or a float."""
    d_v = d.d_v if isinstance(d, SnrValue) else float(d)
    return d_v - advantage_target(alpha)


def scan_arrays(ds: Dataset, w, hp: HyperParams):
    """One-pass scores for every point, as a dict of aligned arrays.

    Keys: ids, d_v, eps_v, distance, advantage, feature_norm, target.
    Shares a single s_xx @ w precompute across all n points.  Raises
    NumericOverflow when a score or feature norm is not finite in float64.
    """
    w = as_weights(w, ds.dim)
    denom = snr_denominator(ds.n, hp)
    q = phi_inv(1.0 - hp.alpha)
    target = 2.0 * q
    # overflow is detected from the results, as in core._stats_from_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        g = ds.stats.s_yx - ds.stats.s_xx @ w
        numer, fnorm = scan_norms(ds.X, ds.y, w, g)
        d_v = numer / denom
    if not (np.isfinite(d_v).all() and np.isfinite(fnorm).all()):
        raise NumericOverflow(
            "candidate scores overflow: the feature and label magnitudes "
            "are too large for float64 norms")
    eps = d_v - target
    adv = np.abs(phi(q - d_v) - hp.alpha)
    return {
        "ids": ds.ids,
        "d_v": d_v,
        "eps_v": eps,
        "distance": np.abs(eps),
        "advantage": adv,
        "feature_norm": fnorm,
        "target": target,
    }


def write_scores_csv(scores: list[CandidateScore], path) -> None:
    """Scan output CSV: index,d_v,eps_v,advantage,feature_norm."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "d_v", "eps_v", "advantage", "feature_norm"])
        for s in scores:
            writer.writerow([s.index, repr(s.d_v), repr(s.eps_v),
                             repr(s.advantage), repr(s.feature_norm)])
