"""Domain types: immutable datasets, sufficient statistics, run parameters.

A Dataset is an immutable snapshot backed by float64 arrays.  It caches the
averaged moments

    s_yx = (1/n) sum_i y_i x_i        (d,)
    s_xx = (1/n) sum_i x_i x_i^T      (d, d)

from which every gradient and candidate score downstream is computed.
Deleting a point produces a new snapshot whose stats are updated
incrementally (O(d^2)) rather than recomputed; the two paths agree to
1e-12 relative and tests enforce it.

Points carry stable, strictly increasing integer ids so that reports
written after a chain of deletions can still reference the original
sample.  Moments that overflow float64 raise NumericOverflow.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyDataset,
    IndexOutOfRange,
    InvalidValue,
    NumericOverflow,
    WouldEmptyDataset,
)

_SNR_CONVENTIONS = ("paper", "consistent")


@dataclass(frozen=True)
class SufficientStats:
    """Averaged moments s_yx (vector) and s_xx (symmetric PSD matrix)."""

    s_yx: np.ndarray
    s_xx: np.ndarray

    def __post_init__(self):
        s_yx = np.asarray(self.s_yx, dtype=np.float64)
        s_xx = np.asarray(self.s_xx, dtype=np.float64)
        s_yx.setflags(write=False)
        s_xx.setflags(write=False)
        object.__setattr__(self, "s_yx", s_yx)
        object.__setattr__(self, "s_xx", s_xx)


def _stats_from_arrays(X: np.ndarray, y: np.ndarray) -> SufficientStats:
    n = X.shape[0]
    # Overflow is detected from the result, not from floating-point flags:
    # BLAS may run in threads whose flags numpy never sees.
    with np.errstate(over="ignore", invalid="ignore"):
        s_yx = X.T @ y / n
        s_xx = X.T @ X / n
        s_xx = (s_xx + s_xx.T) / 2.0  # kill BLAS rounding asymmetry
    if not (np.isfinite(s_yx).all() and np.isfinite(s_xx).all()):
        raise NumericOverflow(
            "sufficient statistics overflow: the feature and label "
            "magnitudes are too large for float64 moments")
    return SufficientStats(s_yx=s_yx, s_xx=s_xx)


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of points with cached stats.

    Construct through from_arrays / load_csv.  delete_point
    returns a new snapshot; existing snapshots are never mutated, so any
    number of readers can share one.
    """

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray
    stats: SufficientStats

    @classmethod
    def from_arrays(cls, X, y, ids=None) -> "Dataset":
        # own copies: the snapshot is frozen read-only, callers keep theirs
        try:
            X = np.array(X, dtype=np.float64, order="C")
            y = np.array(y, dtype=np.float64, order="C")
        except ValueError as exc:  # ragged rows, or an entry not a number
            raise DimensionMismatch(
                f"X and y must be rectangular arrays of numbers: {exc}"
            ) from None
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"need X (n, d) and y (n,), got {X.shape} and {y.shape}")
        if X.shape[0] < 1:
            raise EmptyDataset("a dataset needs at least one point")
        if X.shape[1] < 1:
            raise DimensionMismatch("feature dimension must be >= 1")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise InvalidValue("dataset entries must be finite")
        if ids is None:
            ids = np.arange(X.shape[0], dtype=np.int64)
        else:
            ids = np.array(ids, dtype=np.int64)
            if ids.shape != (X.shape[0],):
                raise DimensionMismatch("ids must have one entry per point")
            if np.any(np.diff(ids) <= 0):
                raise DomainError("ids must be strictly increasing")
        for a in (X, y, ids):
            a.setflags(write=False)
        return cls(X=X, y=y, ids=ids, stats=_stats_from_arrays(X, y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def position_of(self, point_id: int) -> int:
        """Current position of an original point id.

        Ids are strictly increasing: from_arrays rejects any other order
        and delete_point keeps it, so a binary search finds the id.
        """
        pos = int(np.searchsorted(self.ids, point_id))
        if pos >= self.n or self.ids[pos] != point_id:
            raise IndexOutOfRange(f"point id {point_id} not in dataset")
        return pos


def delete_point(ds: Dataset, index: int) -> Dataset:
    """New dataset without the point at position ``index``.

    Stats are updated incrementally:
        s_yx' = (n s_yx - y_v x_v) / (n - 1)
        s_xx' = (n s_xx - x_v x_v^T) / (n - 1)
    """
    if ds.n == 1:
        raise WouldEmptyDataset("cannot delete the only remaining point")
    if not 0 <= index < ds.n:
        raise IndexOutOfRange(f"index {index} outside [0, {ds.n})")
    n = ds.n
    xv = ds.X[index]
    yv = ds.y[index]
    try:
        # elementwise ufuncs in this thread, so numpy's flags see overflow
        with np.errstate(over="raise"):
            s_yx = (n * ds.stats.s_yx - yv * xv) / (n - 1)
            s_xx = (n * ds.stats.s_xx - np.outer(xv, xv)) / (n - 1)
    except FloatingPointError:
        raise NumericOverflow(
            "updated sufficient statistics overflow float64") from None
    X = np.delete(ds.X, index, axis=0)
    y = np.delete(ds.y, index)
    ids = np.delete(ds.ids, index)
    for a in (X, y, ids):
        a.setflags(write=False)
    return Dataset(X=X, y=y, ids=ids,
                   stats=SufficientStats(s_yx=s_yx, s_xx=s_xx))


@dataclass(frozen=True)
class HyperParams:
    """Run parameters shared by scoring, selection, bounds, and simulation.

    alpha must lie strictly inside (0, 0.5) so the advantage-nulling target
    2 * phi_inv(1 - alpha) is positive.  gamma = 0 or sigma = 0 are legal to
    construct (the plain SGD step tolerates them) but any operation whose
    formula divides by them raises DegenerateNoise.
    """

    gamma: float
    sigma: float
    alpha: float
    delta: float = 100.0
    snr_convention: str = "paper"
    seed: int = 0

    def __post_init__(self):
        if not (self.gamma >= 0.0 and np.isfinite(self.gamma)):
            raise DomainError(f"gamma must be >= 0 and finite, got {self.gamma}")
        if not (self.sigma >= 0.0 and np.isfinite(self.sigma)):
            raise DomainError(f"sigma must be >= 0 and finite, got {self.sigma}")
        if not (0.0 < self.alpha < 0.5):
            raise DomainError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if not (self.delta >= 0.0 and np.isfinite(self.delta)):
            raise DomainError(f"delta must be >= 0 and finite, got {self.delta}")
        if self.snr_convention not in _SNR_CONVENTIONS:
            raise DomainError(
                f"snr_convention must be one of {_SNR_CONVENTIONS}, "
                f"got {self.snr_convention!r}")
        object.__setattr__(self, "seed", int(self.seed))


_HEADER_RE = re.compile(r"^x(\d+)$")


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset in the canonical CSV layout x0,...,x{d-1},y."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(ds.dim)] + ["y"])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.X[i]]
                            + [repr(float(ds.y[i]))])


def _json_rows(head: dict, key: str, names, columns) -> str:
    """``json.dumps(head | {key: rows}, indent=2)`` and a newline, faster.

    Row i maps ``names`` to element i of the arrays ``columns``, which hold
    at least one element; ``key`` is not in ``head``.  ``indent`` turns off
    CPython's C encoder, so only the small head goes through ``indent=2``.
    The C encoder writes each column as a flat list, whose tokens (ints,
    float reprs, true/false, NaN, Infinity) are exactly what ``indent=2``
    writes, and one row template lays them out in its place.

    Private, because perfbench's tracer wraps public functions only: the
    writing time stays in the spans of selection_to_json and cli.
    """
    text = json.dumps(head | {key: []}, indent=2)
    tokens = [json.dumps(col.tolist())[1:-1].split(", ") for col in columns]
    template = "{" + ",".join(f"\n      {json.dumps(name)}: %s"
                              for name in names) + "\n    }"
    rows = ",\n    ".join([template % row for row in zip(*tokens)])
    # the list is the last value of the top-level object: "[]\n}"
    return text[:-4] + "[\n    " + rows + "\n  ]\n}\n"


def load_csv(path) -> Dataset:
    """Read a dataset from the canonical CSV layout.

    ``np.loadtxt`` parses the rows.  A file that it rejects, or reads to
    another shape, goes through ``_parse_rows``, whose errors name
    ``path:lineno``.  Both parse with correctly rounded conversions, so
    the arrays are the same either way.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            d = _check_header(path, next(csv.reader(fh), None))
        try:
            with warnings.catch_warnings():
                # a file without data rows warns; _parse_rows reports it
                warnings.simplefilter("ignore", UserWarning)
                arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                                 comments=None, encoding="utf-8")
        except ValueError:
            arr = None
        if arr is None or arr.shape[0] == 0 or arr.shape[1] != d + 1:
            arr = _parse_rows(path, d)
    except UnicodeDecodeError as exc:
        raise InvalidValue(f"{path}: not UTF-8 text (byte "
                           f"0x{exc.object[exc.start]:02x}: {exc.reason})"
                           ) from None
    return Dataset.from_arrays(arr[:, :d], arr[:, d])


def _check_header(path, header) -> int:
    """Feature dimension d of the header row x0,...,x{d-1},y."""
    if header is None:
        raise EmptyDataset(f"{path}: empty file")
    if len(header) < 2 or header[-1] != "y":
        raise InvalidValue(f"{path}: header must be x0,...,x{{d-1}},y")
    for j, name in enumerate(header[:-1]):
        m = _HEADER_RE.match(name)
        if not m or int(m.group(1)) != j:
            raise InvalidValue(f"{path}: unexpected column {name!r} at {j}")
    return len(header) - 1


def _parse_rows(path, d: int) -> np.ndarray:
    """The data rows, field by field; the first bad line raises."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        data = []
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise DimensionMismatch(
                    f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
            try:
                data.append([float(v) for v in row])
            except ValueError as exc:
                raise InvalidValue(f"{path}:{lineno}: {exc}") from None
    if not data:
        raise EmptyDataset(f"{path}: no data rows")
    return np.asarray(data, dtype=np.float64)
