"""Noisy-SGD stepping and multi-step deletion protocols.

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

The iterations run as one array program (_run_block).  A block of K
iterations advances together: weights W (K, d), moments s_yx (K, d) and
s_xx (K, d, d) downdated in place, the flat (K, n) positions of the
deleted points in place of reduced copies, and a point count per
iteration, since perfect_delete may skip a deletion.  K is set by a fixed
budget, K (n + steps) d <= _BLOCK_ELEMS (2**18).  Each iteration draws
its step noise up front, make_rng(seed, it).standard_normal((steps, d)),
which is the sequence that ``steps`` single draws give.  A random_delete
iteration draws its schedule the same way, one
make_rng(seed, it, 1).integers call over the highs n, n - 1, ...,
n - steps + 1, which gives the sequence of ``steps`` single draws of a
surviving point.  The final weights and
deletion logs are bit-identical to the test suite's one-iteration,
one-step replay (run_protocol_loop), whatever the block size.

Errors: perfect_delete with sigma = 0 or gamma = 0 raises DegenerateNoise
before any step, and moments, scores or weights that overflow float64
raise NumericOverflow, with no RuntimeWarning.  The overflow is raised at
the earliest failing step of any iteration in the block, where a loop over
iterations would raise at the first failing step of the earliest
iteration; the class, and so the CLI exit code, is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, HyperParams
from .errors import DomainError, EmptyInput, NumericOverflow, TooManyDeletions
from .gauss import make_rng
from .lossgrad import as_weights
from .selector import _check_tie_break, _pick
from .snr import _scores, advantage_target, feature_norms, snr_denominator

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
        _check_tie_break(self.tie_break)
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
    deletions_log: list[list[Optional[int]]]   # position; None = skipped


# Largest K * (n + steps) * d that one block of K iterations may hold; it
# bounds the (K, steps, d) noise and, for perfect_delete, the (K, n)
# arrays of the scan: three buffers that every step reuses.  At paper
# scale (n = 1,000, d = 3, 100 steps) 2^18 gives K = 79 and 0.6 MB
# buffers, where 2^20 gives K = 317 and 2.5 MB, above a 2 MB L2: 400
# perfect_delete iterations took 0.898 and 0.924 s (medians of 8
# alternating in-process runs, two seeds, one BLAS thread, 2-core Xeon)
# against 0.963 and 0.966 s, faster in 13 of 16 pairs.
_BLOCK_ELEMS = 2 ** 18


def run_protocol(cfg: StepConfig, ds: Dataset) -> ExperimentResult:
    """Monte Carlo campaign; deterministic for a fixed (config, seed).

    Iterations run in blocks of K at once; the results do not depend on K.
    """
    as_weights(cfg.w0, ds.dim)
    if cfg.protocol != "no_delete" and cfg.steps > ds.n - 1:
        raise TooManyDeletions(
            f"{cfg.steps} deletion steps would exhaust {ds.n} points")
    size = max(1, _BLOCK_ELEMS // ((ds.n + cfg.steps) * ds.dim))
    blocks = [_run_block(ds, cfg, range(lo, min(lo + size, cfg.iterations)))
              for lo in range(0, cfg.iterations, size)]
    finals = np.concatenate([w for w, _ in blocks])
    logs = [[None if pos < 0 else pos for pos in row]
            for _, deleted in blocks for row in deleted.tolist()]
    mean, variance, histograms = summarize(finals, cfg.bins)
    return ExperimentResult(
        final_weights=finals,
        mean=mean,
        variance=variance,
        histograms=histograms,
        deletions_log=logs,
    )


def _run_block(ds: Dataset, cfg: StepConfig, its: range):
    """Final weights (K, d) and the position deleted at each step
    (K, steps) of the iterations ``its``; -1 is a skipped deletion, and
    no_delete gives (K, 0).

    Each iteration keeps its own weights, moments, point count and deleted
    points.  Deleting point v from an iteration with n points downdates
    its moments

        s_yx' = (n s_yx - y_v x_v) / (n - 1)
        s_xx' = (n s_xx - x_v x_v^T) / (n - 1)

    and a step is w' = w - gamma (grad L(w) + sigma z), z ~ N(0, I), with
    grad L(w) = 2 (s_xx w - s_yx).  Per iteration, the arithmetic is that
    of scan_arrays and of the test suite's one-step replay,
    run_protocol_loop, on its reduced dataset.
    """
    hp, steps, n = cfg.hp, cfg.steps, ds.n
    k = len(its)
    w = np.tile(cfg.w0, (k, 1))
    s_yx = np.tile(ds.s_yx, (k, 1))
    s_xx = np.tile(ds.s_xx, (k, 1, 1))
    count = np.full(k, n)
    dead = np.empty(0, dtype=np.intp)  # flat (K, n) positions deleted
    deleted = np.full((k, 0 if cfg.protocol == "no_delete" else steps), -1)
    if cfg.protocol == "perfect_delete":
        low = n - steps + 1  # the fewest points a scan sees
        denom = np.array([snr_denominator(m, hp) for m in range(low, n + 1)])
        target = advantage_target(hp.alpha)
        fnorm = feature_norms(ds.X)
        X = np.asfortranarray(ds.X)  # the kernel reads its columns
        work = np.empty((3, k, n))  # the scan's temporaries, every step
    elif cfg.protocol == "random_delete":
        deleted[:] = [_random_schedule(n, steps, make_rng(hp.seed, it, 1))
                      for it in its]
    # the draws of `steps` single steps; sigma = 0 draws nothing
    noise = None if hp.sigma == 0.0 else np.stack(
        [make_rng(hp.seed, it).standard_normal((steps, ds.dim)) for it in its])
    for t in range(steps):
        if cfg.protocol == "perfect_delete":
            d_v = _scores(X, ds.y, s_yx, s_xx, w, denom[count - low, None],
                          hp, dead, work)
            eps, dist = _distances(d_v, target, dead, work[1])
            deleted[:, t] = _pick(dist, eps, fnorm, hp.delta, cfg.tie_break)
        if cfg.protocol != "no_delete":
            act = np.flatnonzero(deleted[:, t] >= 0)
            pos = deleted[act, t]
            c = count[act, None]
            xv, yv = ds.X[pos], ds.y[pos, None]
            try:
                # the downdates above, one row per iteration; elementwise
                # ufuncs in this thread, so numpy's flags see overflow
                with np.errstate(over="raise"):
                    s_yx[act] = (c * s_yx[act] - yv * xv) / (c - 1)
                    s_xx[act] = ((c[..., None] * s_xx[act]
                                  - xv[:, :, None] * xv[:, None, :])
                                 / (c[..., None] - 1))
            except FloatingPointError:
                raise NumericOverflow(
                    "updated sufficient statistics overflow float64") from None
            dead = np.append(dead, act * n + pos)
            count[act] -= 1
        with np.errstate(over="ignore", invalid="ignore"):
            grad = 2.0 * (np.matmul(s_xx, w[..., None])[..., 0] - s_yx)
            if noise is not None:
                grad = grad + hp.sigma * noise[:, t]
            w = w - hp.gamma * grad
        if not np.isfinite(w).all():
            raise NumericOverflow(
                "SGD step overflows: the weights are not finite")
    return w, deleted


def _distances(d_v, target, dead, out):
    """eps = d_v - target and dist = |eps| of a (K, n) scan, with inf at
    the flat positions ``dead``, whatever their scores, NaN included.

    d_v is overwritten by eps, and ``out`` by dist.
    """
    eps = np.subtract(d_v, target, out=d_v)
    dist = np.abs(eps, out=out)
    dist.reshape(-1)[dead] = np.inf
    return eps, dist


def _random_schedule(n: int, steps: int, rng: np.random.Generator) -> list:
    """Original position of each of ``steps`` uniform draws of a survivor.

    One ``integers`` call over the highs n, n - 1, ..., n - steps + 1
    draws the whole schedule: Generator draws the elements of an array
    ``high`` in order, by the bounded method of a scalar call, so the
    values are those of ``steps`` single ``integers(len(left))`` draws.
    Draw r picks the r-th survivor, in original order.
    """
    left = list(range(n))
    return [left.pop(r)
            for r in rng.integers(np.arange(n, n - steps, -1)).tolist()]


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

