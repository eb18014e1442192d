"""Synthetic linear-regression dataset generator.

Defaults reproduce the reference recipe: 200 points, x uniform on [0, 10],
labels y = 3.1415926535 x plus N(0, 2^2) noise amplified by 10.  The seed
is honored within this package's own Philox streams; no attempt is made to
bit-match draws from any other generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import DomainError, NumericOverflow
from .gauss import make_rng


@dataclass(frozen=True)
class GenConfig:
    n: int = 200
    x_low: float = 0.0
    x_high: float = 10.0
    slope: float = 3.1415926535
    noise_std: float = 2.0
    noise_scale: float = 10.0
    seed: int = 40
    extra_features: int = 0   # appended independent uniforms, no label effect

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        for name in ("x_low", "x_high", "slope", "noise_std", "noise_scale"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
        if not self.x_low < self.x_high:
            raise DomainError(
                f"need x_low < x_high, got [{self.x_low}, {self.x_high}]")
        # as Python floats, an overflowing difference is inf with no warning
        if not np.isfinite(float(self.x_high) - float(self.x_low)):
            raise DomainError(
                f"x_high - x_low must be finite, got [{self.x_low}, "
                f"{self.x_high}]")
        if self.noise_std < 0.0:
            raise DomainError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.noise_scale < 0.0:
            raise DomainError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.extra_features < 0:
            raise DomainError(
                f"extra_features must be >= 0, got {self.extra_features}")


def generate(cfg: GenConfig) -> Dataset:
    """Draw a dataset: x ~ U[x_low, x_high], y = slope*x + scale*N(0, std^2)."""
    rng = make_rng(cfg.seed)
    x = rng.uniform(cfg.x_low, cfg.x_high, cfg.n)
    cols = [x]
    if cfg.extra_features:
        cols.append(rng.uniform(cfg.x_low, cfg.x_high,
                                (cfg.n, cfg.extra_features)))
    # overflow is detected from the results, as in core._stats_from_arrays
    with np.errstate(over="ignore", invalid="ignore"):
        noise = cfg.noise_scale * cfg.noise_std * rng.standard_normal(cfg.n)
        y = cfg.slope * x + noise
    if not np.isfinite(y).all():
        raise NumericOverflow("generated labels overflow float64")
    X = np.column_stack(cols)
    return Dataset.from_arrays(X, y)
