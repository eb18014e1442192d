"""Independent reference calculators used only by the test suite.

Everything here is deliberately written the slow, obvious way (plain loops,
physically rebuilt deleted datasets) and leans on scipy/mpmath for the
normal distribution, so no code path is shared with the package under
test.  Points are named by their positions, as in the package.

One exception shares the package's arithmetic on purpose:
``run_protocol_loop`` replays the simulation protocols one iteration and
one step at a time: it scores with the package's scan_arrays and draws from
make_rng, and it deletes and steps through ``delete_point`` and
``sgd_step`` below, which rebuild each reduced dataset (a Dataset of
read-only X, y, s_yx, s_xx) and step with ``risk_grad``.  Their arithmetic
is the per-iteration arithmetic of sim._run_block, so the engine is
compared against them bit for bit.  ``empirical_advantage``, the Monte
Carlo estimator that checks the closed-form membership advantage, only
draws its samples from make_rng.

``IndexOutOfRange`` is the error of the position guards of
``delete_point`` and ``empirical_advantage``; no package function raises it.
"""

import csv
import io
import json
import math

import numpy as np
from scipy.stats import norm

from delpoint import Dataset, DelpointError, NumericOverflow, make_rng
from delpoint.core import as_weights
from delpoint.snr import scan_arrays


class IndexOutOfRange(DelpointError):
    """A point index is outside [0, n)."""


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
    return base - t * c, base + t * c


def privacy_floor_calc(eps_v, alpha):
    return max(math.log(norm.cdf(norm.ppf(alpha) - eps_v) + 1.0 - alpha), 0.0)


def target_gap_mp(alpha, eps_values, dps=50):
    """Phi(Phi_inv(alpha) - eps) - alpha for each eps, as mpmath numbers of
    dps digits; the quantile is the root of log Phi(x) = log alpha."""
    import mpmath as mp
    with mp.workdps(dps):
        log_alpha = mp.log(mp.mpf(alpha))
        z = mp.findroot(lambda x: mp.log(mp.ncdf(x)) - log_alpha,
                        norm.ppf(alpha))
        return [mp.ncdf(z - mp.mpf(e)) - mp.mpf(alpha) for e in eps_values]


def json_doc_indent2(head, key, names, columns):
    """A row table the way json.dumps writes it: one dict per row, indent=2."""
    rows = [dict(zip(names, row))
            for row in zip(*(np.asarray(col).tolist() for col in columns))]
    return json.dumps(head | {key: rows}, indent=2) + "\n"


def selection_doc_indent2(result):
    """selection.json of a find_perfect_deleted_point result the way
    json.dumps writes it."""
    names = ["index", "d_v", "eps_v", "distance", "advantage", "feature_norm"]
    columns = [result[key] for key in names]
    best = result["best"]
    head = {"format_version": 1, "target": result["target"],
            "best": None if best is None
            else dict(zip(names, (col[best].item() for col in columns)))}
    return json_doc_indent2(head, "scores", names, columns)


def summary_doc(config, result):
    """summary.json of an ExperimentResult, as a plain document."""
    return {"format_version": 1, "config": config,
            "mean": [float(v) for v in result.mean],
            "variance": [float(v) for v in result.variance],
            "histogram": [{"edges": [float(v) for v in edges],
                           "counts": [int(v) for v in counts]}
                          for counts, edges in result.histograms],
            "deletions_log": result.deletions_log}


def csv_writer_text(header, rows):
    """A CSV the way csv.writer writes it with "\n" line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def residual_loop(X, y, w):
    """The residuals of scan_norms one point and one scalar at a time, in
    its stated order: p = x_0 w_0; p += x_j w_j; resid = y - p."""
    w = np.asarray(w).tolist()
    out = []
    for x, yi in zip(np.asarray(X).tolist(), np.asarray(y).tolist()):
        p = x[0] * w[0]
        for j in range(1, len(x)):
            p += x[j] * w[j]
        out.append(yi - p)
    return out


def scan_norms_loop(X, y, w, g):
    """scan_norms one point and one scalar at a time, in its stated order:
    the residual of residual_loop, acc = c_0^2; acc += c_j^2, with
    c_j = resid x_j - g_j, then sqrt(acc)."""
    g = np.asarray(g).tolist()
    out = []
    for x, resid in zip(np.asarray(X).tolist(), residual_loop(X, y, w)):
        acc = 0.0
        for j in range(len(x)):
            c = resid * x[j] - g[j]
            acc = c * c if j == 0 else acc + c * c
        out.append(math.sqrt(acc))
    return out


def row_norms_loop(X):
    """||x_i|| summed left to right: acc = x_0^2; acc += x_j^2; sqrt."""
    out = []
    for x in np.asarray(X).tolist():
        acc = x[0] * x[0]
        for v in x[1:]:
            acc += v * v
        out.append(math.sqrt(acc))
    return out


def select_loop(a, delta, tie_break):
    """Selected position of the scan ``a`` by the documented tie rules."""
    dist, index = a["distance"].tolist(), a["index"].tolist()
    m = min(dist)
    if m > delta:
        return None
    if tie_break == "paper":
        # the last point attaining the minimum wins
        return max((i for i in range(len(dist)) if dist[i] == m),
                   key=lambda i: index[i])
    tie = [i for i in range(len(dist)) if dist[i] <= m + 1e-9]
    fnorm, eps = a["feature_norm"].tolist(), a["eps_v"].tolist()
    return min(tie, key=lambda i: (fnorm[i], eps[i] < 0, index[i]))


def delete_point(ds, index):
    """New dataset without the point at position ``index``.

    Stats are updated incrementally:
        s_yx' = (n s_yx - y_v x_v) / (n - 1)
        s_xx' = (n s_xx - x_v x_v^T) / (n - 1)
    """
    if ds.n == 1:
        raise DelpointError("cannot delete the only remaining point")
    if not 0 <= index < ds.n:
        raise IndexOutOfRange(f"index {index} outside [0, {ds.n})")
    n = ds.n
    xv = ds.X[index]
    yv = ds.y[index]
    try:
        # elementwise ufuncs in this thread, so numpy's flags see overflow
        with np.errstate(over="raise"):
            s_yx = (n * ds.s_yx - yv * xv) / (n - 1)
            s_xx = (n * ds.s_xx - np.outer(xv, xv)) / (n - 1)
    except FloatingPointError:
        raise NumericOverflow(
            "updated sufficient statistics overflow float64") from None
    X = np.delete(ds.X, index, axis=0)
    y = np.delete(ds.y, index)
    for a in (X, y, s_yx, s_xx):
        a.setflags(write=False)
    return Dataset(X, y, s_yx, s_xx)


def risk_grad(w, ds):
    """Mean-loss gradient from sufficient statistics: 2 (s_xx w - s_yx)."""
    w = as_weights(w, ds.dim)
    return 2.0 * (ds.s_xx @ w - ds.s_yx)


def sample_gaussian(rng, mean, std):
    """Draw mean + std * Z with i.i.d. standard normal Z per entry.

    std = 0 returns the mean exactly (no RNG consumption).
    """
    mean = np.asarray(mean, dtype=np.float64)
    if std < 0.0:
        raise DelpointError(f"std must be >= 0, got {std}")
    if std == 0.0:
        return mean.copy()
    return mean + std * rng.standard_normal(mean.shape)


def sgd_step(w, ds, hp, rng):
    """w - gamma * (grad L(w; ds) + eta) with eta ~ N(0, sigma^2 I).

    Raises NumericOverflow when the new weights are not finite in float64;
    as in scan_arrays, overflow is detected from the result.
    """
    w = as_weights(w, ds.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        w = w - hp.gamma * sample_gaussian(rng, risk_grad(w, ds), hp.sigma)
    if not np.isfinite(w).all():
        raise NumericOverflow("SGD step overflows: the weights are not finite")
    return w


def run_protocol_loop(cfg, ds):
    """Final weights (iterations, d) and deletion logs, one iteration and
    one step at a time.

    Each iteration draws its noise from make_rng(seed, it) and its random
    deletions from make_rng(seed, it, 1), rebuilds its dataset with
    delete_point, and steps with sgd_step.  ``orig`` holds the position in
    ``ds`` of each point of the rebuilt dataset, so the log names points
    by their original positions.
    """
    finals, logs = [], []
    for it in range(cfg.iterations):
        noise_rng = make_rng(cfg.hp.seed, it)
        delete_rng = make_rng(cfg.hp.seed, it, 1)
        cur, w, events, orig = ds, cfg.w0, [], list(range(ds.n))
        for _ in range(cfg.steps):
            pos = None
            if cfg.protocol == "perfect_delete":
                pos = select_loop(scan_arrays(cur, w, cfg.hp), cfg.hp.delta,
                                  cfg.tie_break)
                events.append(None if pos is None else orig[pos])
            elif cfg.protocol == "random_delete":
                pos = int(delete_rng.integers(cur.n))
                events.append(orig[pos])
            if pos is not None:
                cur = delete_point(cur, pos)
                del orig[pos]
            w = sgd_step(w, cur, cfg.hp, noise_rng)
        finals.append(w)
        logs.append(events)
    return np.stack(finals), logs


def empirical_advantage(ds, index, w, hp, trials, rng=None):
    """Monte Carlo advantage of the level-alpha likelihood-ratio test.

    Draws ``trials`` one-step updates under the keep and the delete
    hypotheses and returns |accept_rate(H0) + accept_rate(H1) - 1|, which
    converges to |Phi(Phi_inv(1 - alpha) - d) - alpha| at the update
    separation d = ||mu(D1) - mu(D0)|| / (gamma sigma), the d_v of the
    consistent convention.  The standard error of the estimate is below
    1/sqrt(trials).  The update mean without the point at ``index`` uses
    the exact leave-one-out identity

        grad L(w; D \\ v) = (n grad L(w; D) - grad l(w; v)) / (n - 1)

    with grad l(w; v) = -2 (y_v - <w, x_v>) x_v.
    """
    if trials < 1000:
        raise DelpointError(f"trials must be >= 1000, got {trials}")
    sigma_g = hp.gamma * hp.sigma
    if sigma_g == 0.0:
        raise DelpointError(
            "empirical advantage needs gamma > 0 and sigma > 0")
    w = as_weights(w, ds.dim)
    n = ds.n
    if n < 2:
        raise DelpointError("deleting a point needs at least two points")
    if not 0 <= index < n:
        raise IndexOutOfRange(f"index {index} outside [0, {n})")
    if rng is None:
        rng = make_rng(hp.seed)

    g = risk_grad(w, ds)
    g_v = -2.0 * (float(ds.y[index]) - float(w @ ds.X[index])) * ds.X[index]
    mu0 = -hp.gamma * g
    mu1 = -hp.gamma * ((n * g - g_v) / (n - 1))
    direction = (mu1 - mu0) / (sigma_g * sigma_g)
    scale = float(np.linalg.norm(direction)) * sigma_g

    if scale == 0.0:
        # identical hypotheses: the likelihood ratio is constant, so the
        # level-alpha test randomizes; both accept rates are 1 - alpha
        a0 = float(np.mean(rng.random(trials) >= hp.alpha))
        a1 = float(np.mean(rng.random(trials) >= hp.alpha))
        return abs(a0 + a1 - 1.0)

    threshold = float(direction @ mu0) + scale * norm.isf(hp.alpha)
    d = ds.dim
    s0 = float(direction @ mu0) + sigma_g * (rng.standard_normal((trials, d)) @ direction)
    s1 = float(direction @ mu1) + sigma_g * (rng.standard_normal((trials, d)) @ direction)
    a0 = float(np.mean(s0 <= threshold))
    a1 = float(np.mean(s1 <= threshold))
    return abs(a0 + a1 - 1.0)
