"""The whole-dataset candidate scan kernel.

For every point it evaluates the residual-factored perturbation norm

    ||(y_i - <x_i, w>) * x_i - g||_2      with  g = s_yx - s_xx @ w

in a single O(n*d) pass; the feature norms are snr.feature_norms, summed the
same way.  ``w`` and ``g`` may carry a leading batch axis of K weight
vectors, which scores the same points against K weights at once;
``simulate`` uses that to advance a block of iterations together.

The kernel works column by column over X.T, with elementwise IEEE
operations only, in this stated order (x_j is column j of X, j = 1 .. d-1):

    p = x_0 w_0;  p += x_j w_j;  resid = y - p
    c_j = resid x_j - g_j;  acc = c_0^2;  acc += c_j^2;  sqrt(acc)

Every product and sum is rounded on its own, so the result does not depend
on BLAS, on SIMD width or on the batch: every batch row is bit-identical to
a call with that row alone.  Its temporaries are (n,) or (K, n); nothing of
shape (K, n, d) is formed.
"""

from __future__ import annotations

import numpy as np


def scan_norms(X, y, w, g, work=None):
    """Perturbation numerators of every point.

    X is (n, d) and y (n,); w and g are (d,) or (K, d).  Returns an array
    of shape (n,) or (K, n).  A Fortran-ordered X is read without a copy.
    ``work``, three float64 arrays of the result's shape, holds the
    temporaries, and its first is returned; a caller that scans many
    times passes the same three and allocates nothing per scan.
    """
    cols = np.ascontiguousarray(X.T)
    # (d, 1) or (K, d, 1): entry j broadcasts against a column
    w, g = np.asarray(w)[..., None], np.asarray(g)[..., None]
    if work is None:
        work = [np.empty(w.shape[:-2] + y.shape) for _ in range(3)]
    acc, p, tmp = work
    np.multiply(cols[0], w[..., 0, :], out=p)
    for j in range(1, len(cols)):
        p += np.multiply(cols[j], w[..., j, :], out=tmp)
    resid = np.subtract(y, p, out=p)
    for j in range(len(cols)):
        c = np.multiply(resid, cols[j], out=tmp if j else acc)
        c -= g[..., j, :]
        c *= c
        if j:
            acc += c
    return np.sqrt(acc, out=acc)


def _row_norms(X):
    """||x_i||_2 of every row of X (n, d): acc = x_0^2; acc += x_j^2."""
    acc = np.square(X[:, 0])
    for j in range(1, X.shape[1]):
        acc += np.square(X[:, j])
    return np.sqrt(acc, out=acc)


def active_backend() -> str:
    """Name of the scan implementation; numpy is the only one."""
    return "numpy"
