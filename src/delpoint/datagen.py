"""Synthetic linear-regression dataset generator.

Draws the reference recipe: x uniform on [0, X_HIGH], labels
y = SLOPE x plus N(0, 2^2) noise amplified by 10.  The seed is honored
within this package's own Philox streams; no attempt is made to bit-match
draws from any other generator.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset
from .errors import DelpointError
from .gauss import make_rng

X_HIGH = 10.0
SLOPE = 3.1415926535
NOISE = 10.0 * 2.0   # N(0, 2^2) noise amplified by 10


def generate(n: int = 200, seed: int = 40,
             extra_features: int = 0) -> Dataset:
    """Draw n points; extra_features appends inert U[0, X_HIGH] columns."""
    if n < 1:
        raise DelpointError(f"n must be >= 1, got {n}")
    if extra_features < 0:
        raise DelpointError(
            f"extra_features must be >= 0, got {extra_features}")
    rng = make_rng(seed)
    x = rng.uniform(0.0, X_HIGH, n)
    cols = [x]
    if extra_features:
        cols.append(rng.uniform(0.0, X_HIGH, (n, extra_features)))
    y = SLOPE * x + NOISE * rng.standard_normal(n)
    return Dataset.from_arrays(np.column_stack(cols), y)
