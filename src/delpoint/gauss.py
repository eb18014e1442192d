"""Standard normal CDF, its inverse, and seeded random streams.

``phi`` is 0.5 erfc(-z / sqrt(2)) from libm's ``math.erfc``, so its last
bits follow the platform's C library.

``phi_inv`` works from the lower tail, where p itself carries full
precision: Wichura's AS 241 (Applied Statistics 37, 1988), sharpened by one
Newton step against ``math.erfc``.  For p > 0.5 it mirrors the lower tail,
phi_inv(p) = -phi_inv(1 - p), where 1 - p is exact.  The result stays
within a few ulps down to p = 5e-324.

AS 241 is the C function ``_statistics._normal_dist_inv_cdf``, the one
that ``statistics.NormalDist.inv_cdf`` calls, so the bits are the same.
Importing it alone spares each process the ``statistics`` module and the
``fractions`` and ``decimal`` modules that it loads.  Where
``_statistics`` is missing, ``statistics`` supplies its Python twin.

Random streams are counter-based (Philox) and keyed by an explicit
64-bit seed plus an integer subkey path, so independent Monte Carlo
streams can be split per iteration without ever sharing state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DelpointError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter built without the C module
    from statistics import _normal_dist_inv_cdf


def phi(z):
    """Standard normal CDF.

    Accepts a float or ndarray; returns the matching type.  Raises
    DelpointError on NaN/inf input.
    """
    arr = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DelpointError("phi requires finite input")
    t = -arr / _SQRT2
    erfc = np.fromiter(map(math.erfc, t.ravel().tolist()), np.float64, t.size)
    res = 0.5 * erfc.reshape(t.shape)
    if np.isscalar(z) or arr.ndim == 0:
        return float(res)
    return res


def phi_inv(p: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DelpointError(f"phi_inv requires 0 < p < 1, got {p}")
    lower = min(p, 1.0 - p)
    x = _normal_dist_inv_cdf(lower, 0.0, 1.0)
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    if pdf > 0.0:
        x -= (0.5 * math.erfc(-x / _SQRT2) - lower) / pdf
    return x if p <= 0.5 else -x


def make_rng(seed: int, *subkey: int) -> np.random.Generator:
    """Counter-based generator for the stream (seed, subkey...).

    Distinct subkey paths yield statistically independent streams; the same
    path always reproduces the same sequence.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in subkey))
    return np.random.Generator(np.random.Philox(ss))
