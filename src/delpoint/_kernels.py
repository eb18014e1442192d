"""The whole-dataset candidate scan kernel.

For every point it evaluates the residual-factored perturbation norm

    ||(y_i - <x_i, w>) * x_i - g||_2      with  g = s_yx - s_xx @ w

in a single O(n*d) pass; the feature norms are snr.feature_norms.  ``w`` and
``g`` may carry a leading batch axis of K weight vectors, which scores the
same points against K weights at once; ``simulate`` uses that to advance a
block of iterations together.

Every batch row is bit-identical to a call with that row alone.  The
residuals come from ``np.matmul(X, w[..., None])``, one matrix-vector
product per batch row, which sums each row of X in the order of ``X @ w``.
``W @ X.T``, ``X @ W.T`` and ``einsum`` over the weight axis do not: they
sum the d products in another order, and the last bits differ for d >= 2.
"""

from __future__ import annotations

import numpy as np


def scan_norms(X, y, w, g):
    """Perturbation numerators of every point.

    X is (n, d) and y (n,); w and g are (d,) or (K, d).  Returns an array
    of shape (n,) or (K, n).
    """
    resid = y - np.matmul(X, w[..., None])[..., 0]
    diff = resid[..., None] * X - g[..., None, :]
    return np.sqrt(np.einsum("...ij,...ij->...i", diff, diff))


def active_backend() -> str:
    """Name of the scan implementation; numpy is the only one."""
    return "numpy"
