"""The whole-dataset candidate scan kernel.

For every point it evaluates the residual-factored perturbation norm

    ||(y_i - <x_i, w>) * x_i - g||_2      with  g = s_yx - s_xx @ w

plus the feature norm ||x_i||_2, in a single O(n*d) pass.
"""

from __future__ import annotations

import numpy as np


def scan_norms(X, y, w, g):
    """Perturbation numerators and feature norms of every point."""
    resid = y - X @ w
    diff = resid[:, None] * X - g[None, :]
    numer = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    fnorm = np.sqrt(np.einsum("ij,ij->i", X, X))
    return numer, fnorm


def active_backend() -> str:
    """Name of the scan implementation; numpy is the only one."""
    return "numpy"
