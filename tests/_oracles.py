"""Independent reference calculators used only by the test suite.

Everything here is deliberately written the slow, obvious way (plain loops,
physically rebuilt deleted datasets) and leans on scipy/mpmath for the
normal distribution, so no code path is shared with the package under
test.
"""

import json
import math

import numpy as np
from scipy.stats import norm


def stats_loop(xs, ys):
    """Averaged moments by explicit accumulation."""
    n = len(xs)
    d = len(xs[0])
    s_yx = [0.0] * d
    s_xx = [[0.0] * d for _ in range(d)]
    for x, y in zip(xs, ys):
        for i in range(d):
            s_yx[i] += y * x[i] / n
            for j in range(d):
                s_xx[i][j] += x[i] * x[j] / n
    return np.array(s_yx), np.array(s_xx)


def risk_loop(w, xs, ys):
    total = 0.0
    for x, y in zip(xs, ys):
        r = y - sum(wi * xi for wi, xi in zip(w, x))
        total += r * r
    return total / len(xs)


def point_grad_loop(w, x, y):
    r = y - sum(wi * xi for wi, xi in zip(w, x))
    return np.array([-2.0 * r * xi for xi in x])


def mean_grad_loop(w, xs, ys):
    grads = [point_grad_loop(w, x, y) for x, y in zip(xs, ys)]
    return np.mean(grads, axis=0)


def snr_by_deletion(xs, ys, index, w, gamma, sigma, convention="paper"):
    """d_v from the physically deleted dataset's mean gradient.

    The perturbation direction is grad L(D0) - grad l(v), whose norm is
    twice the closed-form numerator; the deleted dataset enters through
    the identity-free difference of mean gradients.
    """
    n = len(xs)
    g0 = mean_grad_loop(w, xs, ys)
    xs1 = [x for i, x in enumerate(xs) if i != index]
    ys1 = [y for i, y in enumerate(ys) if i != index]
    g1 = mean_grad_loop(w, xs1, ys1)
    # grad L(D1) - grad L(D0) = (grad L(D0) - grad l(v)) / (n - 1)
    numer = float(np.linalg.norm(g1 - g0)) * (n - 1) / 2.0
    return numer / _snr_denominator(n, gamma, sigma, convention)


def _snr_denominator(n, gamma, sigma, convention):
    if convention == "consistent":
        return (n - 1) * sigma / 2.0
    return math.sqrt(gamma * (n - 1) / 2.0) * sigma


def risk_grad_direct(w, X, y):
    """Mean-loss gradient from raw residuals, without sufficient statistics."""
    r = np.asarray(y) - np.asarray(X) @ np.asarray(w)
    return -2.0 / len(r) * (np.asarray(X).T @ r)


def snr_definition_form(X, y, index, w, gamma, sigma, convention="paper"):
    """d_v from raw gradients: ||grad L(w; D0) - grad l(w; v)|| / 2, over
    the convention's denominator.

    The gradient difference is twice the closed-form numerator vector.
    """
    X, y, w = np.asarray(X), np.asarray(y), np.asarray(w)
    point_grad = -2.0 * (y[index] - X[index] @ w) * X[index]
    numer = float(np.linalg.norm(risk_grad_direct(w, X, y) - point_grad)) / 2.0
    return numer / _snr_denominator(len(y), gamma, sigma, convention)


def advantage_formula(d, alpha):
    return abs(norm.cdf(norm.ppf(1.0 - alpha) - d) - alpha)


def select_strict_loop(xs, ys, w, gamma, sigma, alpha, delta):
    """Literal single-pass selection: running tolerance, <= replacement."""
    target = 2.0 * norm.ppf(1.0 - alpha)
    best = None
    d = delta
    for i in range(len(xs)):
        d_v = snr_by_deletion(xs, ys, i, w, gamma, sigma)
        d1 = abs(d_v - target)
        if d1 <= d:
            d = d1
            best = i
    return best


def bounds_calc(xs, ys, index, w, gamma, sigma, alpha, eps_v, b=None):
    """Risk-change interval endpoints straight from the printed formulas."""
    n = len(xs)
    target = 2.0 * norm.ppf(1.0 - alpha)
    l0 = risk_loop(w, xs, ys)
    s_yx, s_xx = stats_loop(xs, ys)
    g_norm = float(np.linalg.norm(s_yx - s_xx @ np.asarray(w)))
    scale = float(np.linalg.norm(xs[index])) if b is None else float(b)
    c = sigma / scale * math.sqrt(gamma / (2.0 * (n - 1)))
    t = eps_v + target
    base = l0 / (n - 1) - g_norm / ((n - 1) * scale)
    return base - t * c, base + t * c, c


def privacy_floor_calc(eps_v, alpha):
    return max(math.log(norm.cdf(norm.ppf(alpha) - eps_v) + 1.0 - alpha), 0.0)


def json_doc_indent2(head, key, names, columns):
    """A row table the way json.dumps writes it: one dict per row, indent=2."""
    rows = [dict(zip(names, row))
            for row in zip(*(np.asarray(col).tolist() for col in columns))]
    return json.dumps(head | {key: rows}, indent=2) + "\n"
