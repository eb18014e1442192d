"""Domain types: immutable datasets and run parameters, and CSV/JSON i/o.

A Dataset is an immutable snapshot of float64 arrays: the features X, the
labels y and the averaged moments

    s_yx = (1/n) sum_i y_i x_i        (d,)
    s_xx = (1/n) sum_i x_i x_i^T      (d, d)

from which every gradient and candidate score downstream is computed.

A point is named by its position (its row in X), which reports use to
reference the original sample.  Moments that overflow float64 raise
NumericOverflow.
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
    InvalidValue,
    NumericOverflow,
)

_SNR_CONVENTIONS = ("paper", "consistent")


def _stats_from_arrays(X: np.ndarray, y: np.ndarray) -> tuple:
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
    return s_yx, s_xx


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of points with their averaged moments.

    Construct through from_arrays / load_csv.  All four arrays are
    read-only, so any number of readers can share one snapshot.
    """

    X: np.ndarray
    y: np.ndarray
    s_yx: np.ndarray
    s_xx: np.ndarray

    @classmethod
    def from_arrays(cls, X, y) -> "Dataset":
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
        arrays = (X, y, *_stats_from_arrays(X, y))
        for a in arrays:
            a.setflags(write=False)
        return cls(*arrays)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


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


_HEADER_RE = re.compile(r"x([0-9]+)")


def save_csv(ds: Dataset, path) -> None:
    """Write the dataset in the canonical CSV layout x0,...,x{d-1},y."""
    _write_csv(path, [f"x{j}" for j in range(ds.dim)] + ["y"],
               [*ds.X.T, ds.y])


# rows per block of the CSV and JSON row writers: a block's strings are
# all that is held at once, so memory stays flat in n.  `select --out` at
# n = 2e5, d = 3 peaks at 61 MB of RSS with 1,024 or 4,096 rows a block,
# 68 MB with 16,384 and 136 MB with 65,536, and is no faster with more.
_CHUNK_ROWS = 4096


def _write_csv(path, header, columns) -> None:
    """CSV of ``header`` and one row per element of the arrays ``columns``.

    A value is written as the repr of its ``tolist()`` element, so floats
    round-trip exactly and ints print as digits; lines end in "\n".  The
    repr of a number holds no comma, quote or line break, so no value needs
    quoting.  The rows go out in blocks of _CHUNK_ROWS, each converted from
    slices of the columns, so no whole column is held as Python objects.
    Private, like _json_chunks, so the writing time stays in the spans of
    its callers.
    """
    n = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CHUNK_ROWS):
            rows = zip(*[map(repr, col[lo:lo + _CHUNK_ROWS].tolist())
                         for col in columns])
            fh.writelines(",".join(row) + "\n" for row in rows)


def _tokens(col) -> list[str]:
    """The JSON tokens of the elements of the array ``col``, in order.

    The C encoder writes the column as one flat list; its tokens (ints,
    float reprs, true/false, NaN, Infinity) are exactly what ``indent=2``
    writes for the same values.  ``col`` holds at least one element.
    """
    return json.dumps(col.tolist())[1:-1].split(", ")


def _json_chunks(head: dict, key: str, names, encode, n: int):
    """``json.dumps(head | {key: rows}, indent=2)`` and a newline, in pieces.

    Yields the head, the rows in blocks of _CHUNK_ROWS, then the tail; the
    pieces join to the whole document.  Row i maps ``names`` to element i
    of the token lists (see _tokens) that ``encode(lo, hi)`` returns for
    rows lo..hi-1, one list per name.  n >= 1, and ``key`` is not in
    ``head``.  ``indent`` turns off CPython's C encoder, so only the small
    head goes through ``indent=2``.  The rows of a block are one
    interleaved join: a list of 2 m k strings for m columns and k rows
    holds, for row i and column j, the key text of column j at 2 (m i + j)
    and the token after it.  The key text of column 0 also closes the row
    before, so no row string is built.

    Private, because perfbench's tracer wraps public functions only: the
    writing time shows in the spans of the callers that consume the
    pieces, selection_to_json, or cli where select and bounds stream them.
    """
    m = len(names)
    glue = [f"\n      {json.dumps(name)}: " for name in names]
    sep = "\n    },\n    {" + glue[0]
    # the list is the last value of the top-level object: "[]\n}"
    yield json.dumps(head | {key: []}, indent=2)[:-4] + "[\n    "
    for lo in range(0, n, _CHUNK_ROWS):
        k = min(_CHUNK_ROWS, n - lo)
        parts = [""] * (2 * m * k)
        for j, toks in enumerate(encode(lo, lo + k)):
            parts[2 * j::2 * m] = [("," if j else "{") + glue[j]] * k
            parts[2 * j + 1::2 * m] = toks
        parts[2 * m::2 * m] = [sep] * (k - 1)
        if lo:  # close the last row of the block before
            parts[0] = sep
        yield "".join(parts)
    yield "\n    }\n  ]\n}\n"


def _dumps_indent2(doc, depth: int = 0) -> str:
    """``json.dumps(doc, indent=2)`` for a document of str-keyed dicts,
    lists and JSON scalars, written at nesting ``depth``.

    ``indent`` turns off CPython's C encoder, so ``json.dumps`` would
    encode every element in Python.  Here each non-empty list of scalars
    is one C-encoder call whose item separator holds the newline and the
    indent of its items; dicts, and lists that hold containers, are laid
    out as ``indent=2`` lays them out.
    """
    if not isinstance(doc, (dict, list, tuple)) or not doc:
        return json.dumps(doc)
    pad = "\n" + "  " * (depth + 1)
    if isinstance(doc, dict):
        items = [json.dumps(k) + ": " + _dumps_indent2(v, depth + 1)
                 for k, v in doc.items()]
    # the set of element types: map, type and set walk a long list in C
    elif any(issubclass(t, (dict, list, tuple)) for t in set(map(type, doc))):
        items = [_dumps_indent2(v, depth + 1) for v in doc]
    else:
        items = [json.dumps(doc, separators=("," + pad, ": "))[1:-1]]
    body = pad + ("," + pad).join(items) + pad[:-2]
    return "{" + body + "}" if isinstance(doc, dict) else "[" + body + "]"


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
        m = _HEADER_RE.fullmatch(name)
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
