"""Seeded benchmark inputs, written without any code from the package.

The recipe is the reference one: x0 ~ U[0, 10], y = 3.1415926535 x0 +
20 N(0, 1), and d - 1 extra U[0, 10] features that do not affect y.  The
CSV is written here, in the canonical ``x0,...,x{d-1},y`` layout with
``repr`` floats (which round-trip exactly), so that a change to the
package's generator or writer cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SLOPE = 3.1415926535
NOISE = 20.0
X_HIGH = 10.0


@dataclass(frozen=True)
class Input:
    """One generated dataset: the arrays and the CSV written from them."""

    path: Path
    X: np.ndarray
    y: np.ndarray
    sha256: str
    size_bytes: int

    def describe(self) -> dict:
        n, d = self.X.shape
        return {"file": self.path.name, "n": n, "d": d,
                "bytes": self.size_bytes, "sha256": self.sha256}


def make_input(path: Path, n: int, d: int, seed: int) -> Input:
    """Draw the dataset for ``seed`` and write it to ``path``."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, d))
    X[:, 0] = rng.uniform(0.0, X_HIGH, n)
    if d > 1:
        X[:, 1:] = rng.uniform(0.0, X_HIGH, (n, d - 1))
    y = SLOPE * X[:, 0] + NOISE * rng.standard_normal(n)
    header = ",".join([f"x{j}" for j in range(d)] + ["y"]) + "\n"
    body = "".join(",".join(map(repr, row)) + "\n"
                   for row in np.column_stack([X, y]).tolist())
    data = (header + body).encode("ascii")
    path.write_bytes(data)
    return Input(path=path, X=X, y=y, sha256=hashlib.sha256(data).hexdigest(),
                 size_bytes=len(data))
