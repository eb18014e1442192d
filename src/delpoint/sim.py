"""Noisy-SGD stepping, multi-step deletion protocols, and the empirical
membership-advantage estimator.

One step of noisy SGD is

    w' = w - gamma * (grad L(w; D) + eta),     eta ~ N(0, sigma^2 I)

A protocol run repeats ``iterations`` independent trajectories from the
same starting dataset and weight.  Per step:

* ``perfect_delete``  re-select the best candidate at the current weight,
  delete it when one clears delta (otherwise log None and keep the
  dataset), then take a noisy step on the reduced dataset;
* ``random_delete``   delete a uniformly random surviving point, then step;
* ``no_delete``       step only.

Each iteration owns two private Philox streams split from the master seed
by iteration index: one for step noise and one for random deletions.
Because the deletion stream is separate, runs of different protocols under
the same seed share identical noise realizations, making cross-protocol
comparisons paired.  Deletions shrink the working dataset within an
iteration and reset between iterations.

The empirical advantage estimator draws one-step updates under both the
keep and delete hypotheses, applies the optimal likelihood-ratio threshold
test at level alpha, and returns |accept_rate(H0) + accept_rate(H1) - 1|,
which converges to |Phi(Phi_inv(1-alpha) - d) - alpha| at the true update
separation d = ||mu(D1) - mu(D0)|| / (gamma sigma).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, HyperParams, delete_point
from .errors import DegenerateNoise, DomainError, EmptyInput, TooManyDeletions
from .gauss import make_rng, phi_inv, sample_gaussian
from .lossgrad import as_weights, deleted_grad, risk_grad
from .selector import select_position

PROTOCOLS = ("perfect_delete", "random_delete", "no_delete")


@dataclass(frozen=True)
class StepConfig:
    """Protocol, repetition counts, and shared run parameters."""

    protocol: str
    steps: int
    iterations: int
    hp: HyperParams
    w0: np.ndarray
    bins: int = 30
    tie_break: str = "norm-first"

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise DomainError(f"protocol must be one of {PROTOCOLS}, "
                              f"got {self.protocol!r}")
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")
        if self.iterations < 1:
            raise DomainError(f"iterations must be >= 1, got {self.iterations}")
        if self.bins < 1:
            raise DomainError(f"bins must be >= 1, got {self.bins}")
        w0 = np.asarray(self.w0, dtype=np.float64)
        object.__setattr__(self, "w0", w0)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class ExperimentResult:
    """Per-iteration final weights with summary statistics."""

    final_weights: np.ndarray            # (iterations, d)
    mean: np.ndarray                     # per coordinate
    variance: np.ndarray                 # per coordinate, unbiased
    histograms: list[Histogram]          # per coordinate
    deletions_log: list[list[Optional[int]]]   # original ids; None = skipped


def sgd_step(w, ds: Dataset, hp: HyperParams,
             rng: np.random.Generator) -> np.ndarray:
    """w - gamma * (grad L(w; ds) + eta) with eta ~ N(0, sigma^2 I)."""
    w = as_weights(w, ds.dim)
    noisy = sample_gaussian(rng, risk_grad(w, ds), hp.sigma)
    return w - hp.gamma * noisy


def _run_iteration(ds: Dataset, cfg: StepConfig, it: int):
    noise_rng = make_rng(cfg.hp.seed, it)
    delete_rng = make_rng(cfg.hp.seed, it, 1)
    cur = ds
    w = cfg.w0
    events: list[Optional[int]] = []
    for _ in range(cfg.steps):
        if cfg.protocol == "perfect_delete":
            pos = select_position(cur, w, cfg.hp, cfg.tie_break)
            if pos is None:
                events.append(None)
            else:
                events.append(int(cur.ids[pos]))
                cur = delete_point(cur, pos)
        elif cfg.protocol == "random_delete":
            pos = int(delete_rng.integers(cur.n))
            events.append(int(cur.ids[pos]))
            cur = delete_point(cur, pos)
        w = sgd_step(w, cur, cfg.hp, noise_rng)
    return w, events


def run_protocol(cfg: StepConfig, ds: Dataset, jobs: int = 1) -> ExperimentResult:
    """Monte Carlo campaign; deterministic for a fixed (config, seed, jobs)."""
    as_weights(cfg.w0, ds.dim)
    if cfg.protocol != "no_delete" and cfg.steps > ds.n - 1:
        raise TooManyDeletions(
            f"{cfg.steps} deletion steps would exhaust {ds.n} points")
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")

    if jobs == 1:
        outcomes = [_run_iteration(ds, cfg, it) for it in range(cfg.iterations)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(
                _run_iteration,
                [ds] * cfg.iterations,
                [cfg] * cfg.iterations,
                range(cfg.iterations),
                chunksize=max(1, cfg.iterations // (4 * jobs)),
            ))

    finals = np.stack([w for w, _ in outcomes])
    logs = [events for _, events in outcomes]
    mean, variance, histograms = summarize(finals, cfg.bins)
    return ExperimentResult(
        final_weights=finals,
        mean=mean,
        variance=variance,
        histograms=histograms,
        deletions_log=logs,
    )


def summarize(weights, bins: int) -> tuple[np.ndarray, np.ndarray,
                                          list[Histogram]]:
    """Per-coordinate mean, unbiased variance, and equal-width histograms."""
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.size == 0:
        raise EmptyInput("cannot summarize an empty weight collection")
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    m = arr.shape[0]
    mean = arr.mean(axis=0)
    variance = arr.var(axis=0, ddof=1) if m > 1 else np.zeros(arr.shape[1])
    histograms = []
    for j in range(arr.shape[1]):
        counts, edges = np.histogram(arr[:, j], bins=bins)
        histograms.append(Histogram(edges=edges, counts=counts))
    return mean, variance, histograms


def empirical_advantage(ds: Dataset, index: int, w, hp: HyperParams,
                        trials: int, rng: Optional[np.random.Generator] = None) -> float:
    """Monte Carlo advantage of the level-alpha likelihood-ratio test.

    Draws ``trials`` one-step updates under each hypothesis; the standard
    error of the estimate is below 1/sqrt(trials).
    """
    if trials < 1000:
        raise DomainError(f"trials must be >= 1000, got {trials}")
    sigma_g = hp.gamma * hp.sigma
    if sigma_g == 0.0:
        raise DegenerateNoise("empirical advantage needs gamma > 0 and sigma > 0")
    w = as_weights(w, ds.dim)
    if rng is None:
        rng = make_rng(hp.seed)

    mu0 = -hp.gamma * risk_grad(w, ds)
    mu1 = -hp.gamma * deleted_grad(w, ds, index)
    direction = (mu1 - mu0) / (sigma_g * sigma_g)
    scale = float(np.linalg.norm(direction)) * sigma_g

    if scale == 0.0:
        # identical hypotheses: the likelihood ratio is constant, so the
        # level-alpha test randomizes; both accept rates are 1 - alpha
        a0 = float(np.mean(rng.random(trials) >= hp.alpha))
        a1 = float(np.mean(rng.random(trials) >= hp.alpha))
        return abs(a0 + a1 - 1.0)

    threshold = float(direction @ mu0) + scale * phi_inv(1.0 - hp.alpha)
    d = ds.dim
    s0 = float(direction @ mu0) + sigma_g * (rng.standard_normal((trials, d)) @ direction)
    s1 = float(direction @ mu1) + sigma_g * (rng.standard_normal((trials, d)) @ direction)
    a0 = float(np.mean(s0 <= threshold))
    a1 = float(np.mean(s1 <= threshold))
    return abs(a0 + a1 - 1.0)


def experiment_to_doc(result: ExperimentResult) -> dict:
    """Plain-JSON-serializable view of an ExperimentResult summary."""
    return {
        "mean": [float(v) for v in result.mean],
        "variance": [float(v) for v in result.variance],
        "histogram": [
            {"edges": [float(e) for e in h.edges],
             "counts": [int(c) for c in h.counts]}
            for h in result.histograms
        ],
        "deletions_log": result.deletions_log,
    }
