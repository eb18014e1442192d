"""Output checks against independent recomputations.

Nothing here imports the package.  Scores are recomputed with numpy from
the generated arrays, the normal CDF comes from ``math.erfc`` and its
inverse from ``statistics.NormalDist``.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

TIE_WINDOW = 1e-9     # the selector's documented tie window
RTOL = 1e-9           # relative tolerance on every recomputed value
PF_ATOL = 1e-9        # absolute tolerance on the privacy floor (it is often 0)
MEAN_SE = 5.0         # no-delete mean must lie within this many standard errors


@dataclass(frozen=True)
class Params:
    """Hyperparameters passed explicitly on every benchmark command."""

    gamma: float = 0.01
    sigma: float = 2.0
    alpha: float = 0.01
    delta: float = 100.0

    def cli_args(self) -> list[str]:
        return ["--gamma", repr(self.gamma), "--sigma", repr(self.sigma),
                "--alpha", repr(self.alpha), "--delta", repr(self.delta)]


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _target(p: Params) -> float:
    return 2.0 * NormalDist().inv_cdf(1.0 - p.alpha)


def _d_v(X: np.ndarray, y: np.ndarray, w: np.ndarray, p: Params) -> np.ndarray:
    """Signal-to-noise ratio of every point, straight from the definition."""
    n = len(y)
    r = y - X @ w
    g = X.T @ r / n
    numer = np.linalg.norm(r[:, None] * X - g, axis=1)
    return numer / (math.sqrt(p.gamma * (n - 1) / 2.0) * p.sigma)


def _mismatch(name: str, got, want, tol) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    bad = np.flatnonzero(~(np.abs(got - want) <= tol))
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [f"{name}: {bad.size} values off, first at {i}: "
            f"{float(got.flat[i])!r} != {float(np.asarray(want).flat[i])!r}"]


def brute_force_choice(X: np.ndarray, y: np.ndarray, p: Params) -> int:
    """Position the norm-first rule selects at w = 0, by exhaustive scan."""
    d_v = _d_v(X, y, np.zeros(X.shape[1]), p)
    eps = d_v - _target(p)
    dist = np.abs(eps)
    tie = np.flatnonzero(dist <= dist.min() + TIE_WINDOW)
    fnorm = np.linalg.norm(X[tie], axis=1)
    return int(tie[np.lexsort((tie, eps[tie] < 0, fnorm))[0]])


def check_select(doc: dict, X: np.ndarray, y: np.ndarray, p: Params) -> list[str]:
    """Every d_v, the target, and the best point's place in the tie window."""
    n = len(y)
    scores = doc["scores"]
    if len(scores) != n:
        return [f"select: {len(scores)} scores for {n} points"]
    if [s["index"] for s in scores] != list(range(n)):
        return ["select: scores are not indexed 0..n-1 in order"]
    d_v = _d_v(X, y, np.zeros(X.shape[1]), p)
    target = _target(p)
    problems = _mismatch("select target", doc["target"], target, RTOL * target)
    problems += _mismatch("select d_v", [s["d_v"] for s in scores], d_v,
                          RTOL * d_v)
    best = doc["best"]
    if best is None:
        return problems + ["select: no best point at delta = 100"]
    dist = np.abs(d_v - target)
    slack = TIE_WINDOW + RTOL * target   # rounding of d_v decides the window edge
    if not dist[best["index"]] <= dist.min() + slack:
        problems.append(f"select: best {best['index']} is "
                        f"{dist[best['index']] - dist.min()!r} from the minimum")
    if best != scores[best["index"]]:
        problems.append("select: best differs from its own score row")
    return problems


def check_bounds(doc: dict, X: np.ndarray, y: np.ndarray, p: Params,
                 b_floor: float | None) -> list[str]:
    """Every row's interval, actual change and privacy floor (w = 0)."""
    n = len(y)
    rows = doc["rows"]
    if len(rows) != n:
        return [f"bounds: {len(rows)} rows for {n} points"]
    if [r["index"] for r in rows] != list(range(n)):
        return ["bounds: rows are not indexed 0..n-1 in order"]
    target = _target(p)
    d_v = _d_v(X, y, np.zeros(X.shape[1]), p)
    l0 = float(np.mean(y * y))
    g_norm = float(np.linalg.norm(X.T @ y / n))
    scale = np.linalg.norm(X, axis=1) if b_floor is None else np.full(n, b_floor)
    c = p.sigma / scale * math.sqrt(p.gamma / (2.0 * (n - 1)))
    base = l0 / (n - 1) - g_norm / ((n - 1) * scale)
    # tolerance relative to the terms each endpoint is formed from
    mag = l0 / (n - 1) + g_norm / ((n - 1) * scale) + d_v * c
    actual = (l0 - y * y) / (n - 1)
    alpha = p.alpha
    q = NormalDist().inv_cdf(alpha)
    floor = [max(math.log(_phi(q - e) + 1.0 - alpha), 0.0) for e in d_v - target]
    problems = _mismatch("bounds target", doc["target"], target, RTOL * target)
    for key, want, tol in (
            ("lower", base - d_v * c, RTOL * mag),
            ("upper", base + d_v * c, RTOL * mag),
            ("actual_delta", actual, RTOL * (l0 + y * y) / (n - 1)),
            ("privacy_floor", np.array(floor), PF_ATOL)):
        problems += _mismatch(f"bounds {key}", [r[key] for r in rows], want, tol)
    return problems


def _check_log(log: list, protocol: str, n: int, steps: int,
               iterations: int, first: int | None) -> list[str]:
    if len(log) != iterations:
        return [f"{protocol}: {len(log)} iteration logs, expected {iterations}"]
    for it, events in enumerate(log):
        if protocol == "no_delete":
            if events:
                return [f"no_delete: iteration {it} logged deletions"]
            continue
        if len(events) != steps:
            return [f"{protocol}: iteration {it} logged {len(events)} steps"]
        ids = [e for e in events if e is not None]
        if len(set(ids)) != len(ids) or not all(0 <= e < n for e in ids):
            return [f"{protocol}: iteration {it} ids repeat or leave [0, {n})"]
        if first is not None and events[0] != first:
            return [f"{protocol}: iteration {it} first deletion {events[0]} "
                    f"!= brute-force choice {first}"]
    return []


def exact_no_delete_law(X: np.ndarray, y: np.ndarray, p: Params, steps: int):
    """Exact mean and covariance of w after ``steps`` noisy steps from 0.

    w' = (I - 2 gamma S) w + 2 gamma s_yx - gamma sigma Z, an affine map
    with Gaussian noise, so both moments follow by recursion.
    """
    n, d = X.shape
    A = np.eye(d) - 2.0 * p.gamma * (X.T @ X / n)
    b = 2.0 * p.gamma * (X.T @ y / n)
    mean, cov = np.zeros(d), np.zeros((d, d))
    for _ in range(steps):
        mean = A @ mean + b
        cov = A @ cov @ A.T + (p.gamma * p.sigma) ** 2 * np.eye(d)
    return mean, cov


def check_simulate(doc: dict, weights_csv: str, protocol: str, X: np.ndarray,
                   y: np.ndarray, p: Params, steps: int,
                   iterations: int) -> list[str]:
    """Deletion log, summary against weights.csv, and the no-delete law."""
    cfg = doc["config"]
    if (cfg["protocol"], cfg["steps"], cfg["iterations"]) != (
            protocol, steps, iterations):
        return [f"{protocol}: summary config {cfg} does not match the command"]
    first = brute_force_choice(X, y, p) if protocol == "perfect_delete" else None
    problems = _check_log(doc["deletions_log"], protocol, len(y), steps,
                          iterations, first)
    lines = weights_csv.strip().split("\n")[1:]
    W = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    if W.shape != (iterations, X.shape[1]):
        return problems + [f"{protocol}: weights.csv has shape {W.shape}"]
    mean = np.array(doc["mean"])
    problems += _mismatch(f"{protocol} mean", mean, W.mean(axis=0),
                          RTOL * np.abs(W).max(axis=0))
    problems += _mismatch(f"{protocol} variance", doc["variance"],
                          W.var(axis=0, ddof=1), RTOL * W.var(axis=0, ddof=1))
    if protocol == "no_delete":
        law_mean, law_cov = exact_no_delete_law(X, y, p, steps)
        se = np.sqrt(np.diag(law_cov) / iterations)
        problems += _mismatch("no_delete mean vs exact law", mean, law_mean,
                              MEAN_SE * se)
    return problems


def check_report(text: str, summaries: dict[str, dict]) -> list[str]:
    """One table row per summary, carrying its mean and variance exactly."""
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].isdigit():
            rows[cells[1]] = ([float(v) for v in cells[2].split(",")],
                              [float(v) for v in cells[3].split(",")])
    want = {proto: (doc["mean"], doc["variance"])
            for proto, doc in summaries.items()}
    if rows != want:
        return [f"report: rows {sorted(rows)} do not carry the summaries "
                f"{sorted(want)} exactly"]
    return []
