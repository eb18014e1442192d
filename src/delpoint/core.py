"""Domain types: immutable datasets, weights and run parameters, and
CSV/JSON i/o.

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
import operator
from typing import NamedTuple

import numpy as np

from ._choices import _SNR_CONVENTIONS
from .errors import DelpointError, NumericOverflow


def _stats_from_arrays(X: np.ndarray, y: np.ndarray) -> tuple:
    n = X.shape[0]
    # Overflow is detected from the result, not from floating-point flags:
    # BLAS may run in threads whose flags numpy never sees.
    with np.errstate(over="ignore", invalid="ignore"):
        s_yx = X.T @ y / n
        s_xx = X.T @ X / n  # numpy uses syrk: exactly symmetric
    if not (np.isfinite(s_yx).all() and np.isfinite(s_xx).all()):
        raise NumericOverflow(
            "sufficient statistics overflow: the feature and label "
            "magnitudes are too large for float64 moments")
    return s_yx, s_xx


class Dataset(NamedTuple):
    """Immutable ordered collection of points with their averaged moments.

    Construct through from_arrays / load_csv.  All four arrays are
    read-only, so any number of readers can share one snapshot.  A
    NamedTuple rather than a frozen dataclass: the class builds at import
    in a tenth of the time, as no methods are generated from source.
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
            raise DelpointError(
                f"X and y must be rectangular arrays of numbers: {exc}"
            ) from None
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DelpointError(
                f"need X (n, d) and y (n,), got {X.shape} and {y.shape}")
        if X.shape[0] < 1:
            raise DelpointError("a dataset needs at least one point")
        if X.shape[1] < 1:
            raise DelpointError("feature dimension must be >= 1")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DelpointError("dataset entries must be finite")
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


def as_weights(w, dim: int) -> np.ndarray:
    """Validate and convert a weight vector against a feature dimension."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise DelpointError(f"weights must be a vector, got shape {w.shape}")
    if w.shape[0] != dim:
        raise DelpointError(f"weights have dim {w.shape[0]}, data has {dim}")
    if not np.all(np.isfinite(w)):
        raise DelpointError("weights must be finite")
    return w


def _check_alpha(alpha: float) -> None:
    try:
        ok = 0.0 < alpha < 0.5
    except TypeError:  # not a number: "0.1", None
        ok = False
    if not ok:
        raise DelpointError(f"alpha must lie in (0, 0.5), got {alpha!r}")


def _check_scale(name: str, value) -> None:
    try:
        ok = value >= 0.0 and np.isfinite(value)
    except TypeError:
        ok = False
    if not ok:
        raise DelpointError(f"{name} must be >= 0 and finite, got {value!r}")


class _Frozen:
    """Base of the immutable parameter records: __init__ sets each name of
    ``__slots__`` once, through ``_set``, and any later assignment raises
    AttributeError.  Records compare, hash and print by their fields, in
    slot order, as a frozen dataclass does; a plain class with slots
    generates no methods from source at import."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._fields())) + ")"


class HyperParams(_Frozen):
    """Run parameters shared by scoring, selection, bounds, and simulation.

    alpha must lie strictly inside (0, 0.5) so the advantage-nulling target
    -2 * phi_inv(alpha) = 2 * phi_inv(1 - alpha) is positive.  gamma = 0 or
    sigma = 0 are legal to construct (the plain SGD step tolerates them)
    but any operation whose formula divides by them raises DelpointError.
    gamma, sigma and delta are finite numbers >= 0, kept as given.  seed is
    an integer in [0, 2**64), the range of the CLI's --seed, kept as an
    int.  A value of the wrong type raises DelpointError naming its field.
    """

    __slots__ = ("gamma", "sigma", "alpha", "delta", "snr_convention", "seed")

    def __init__(self, gamma: float, sigma: float, alpha: float,
                 delta: float = 100.0, snr_convention: str = "paper",
                 seed: int = 0):
        _check_scale("gamma", gamma)
        _check_scale("sigma", sigma)
        _check_alpha(alpha)
        _check_scale("delta", delta)
        if snr_convention not in _SNR_CONVENTIONS:
            raise DelpointError(
                f"snr_convention must be one of {_SNR_CONVENTIONS}, "
                f"got {snr_convention!r}")
        try:
            index = operator.index(seed)
        except TypeError:
            index = -1
        if not 0 <= index < 2**64:
            raise DelpointError(
                f"seed must be an integer in [0, 2**64), got {seed!r}")
        self._set(gamma, sigma, alpha, delta, snr_convention, index)


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

    Lines end in "\n", and the rows are those of _row_blocks: a value is
    its JSON token, which for ints and finite floats (every caller's
    columns pass a finiteness check) is the repr of its ``tolist()``
    element, so floats round-trip exactly and no value needs quoting.
    Private, like _json_chunks, so the writing time stays in the spans of
    its callers.
    """
    # the newline before a row's first value ends the line before it
    glue = ["\n"] + [","] * (len(columns) - 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header))
        fh.writelines(_row_blocks(columns, glue, "\n"))
        fh.write("\n")


def _tokens(col) -> list[str]:
    """The JSON tokens of the elements of the array ``col``, in order.

    The tokens are those ``json.dumps`` writes for the elements (ints,
    float reprs, true/false, NaN, Infinity), which is what ``indent=2``
    writes for the same values.  ``col`` holds at least one element, of
    a bool, int or float dtype.

    orjson writes the column from the array itself, with no ``tolist()``
    in between, once three rules hold that its numpy path needs and its
    list path does not: floats are widened to float64 (it writes a
    float32 in float32's own shortest form, and rejects float16), the
    column is C-contiguous (it rejects a strided view such as ``X.T[j]``)
    and in native byte order (it writes a ">f8" 1.5 as 3.13984e-319, with
    no error).  Its shortest round-trip floats have the digits of
    ``repr``, but not always its layout: it writes 1e-05 as 0.00001 and
    1e+16 as 1e16, and NaN and +-inf as null.  Those elements (nonzero
    |x| < 1e-4, |x| >= 1e16, non-finite) are encoded again by
    ``json.dumps`` in one call and put in their places.  orjson is
    imported at the first call, so ``import delpoint.cli`` does not load
    it.
    """
    import orjson

    col = np.ascontiguousarray(
        col, dtype=np.float64 if col.dtype.kind == "f"
        else col.dtype.newbyteorder("="))
    odd = ()
    if col.dtype.kind == "f":
        a = np.abs(col)
        # NaN fails both comparisons, so it is odd too
        odd = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)) & (a != 0.0))
    tokens = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] \
        .decode().split(",")
    if len(odd):
        fixed = json.dumps(col[odd].tolist())[1:-1].split(", ")
        for i, token in zip(odd.tolist(), fixed):
            tokens[i] = token
    return tokens


def _json_chunks(head: dict, key: str, columns: dict):
    """``json.dumps(head | {key: rows}, indent=2)`` and a newline, in pieces.

    Yields the head, the blocks of _row_blocks, then the tail; the pieces
    join to the whole document.  ``columns`` maps the keys of a row, in
    the order the row lists them, to arrays of n >= 1 elements, and row i
    maps each key to the token of element i of its array.  ``key`` is not
    in ``head``.  ``json.dumps`` with ``indent`` encodes every value in
    Python, so only the small head goes through it.

    Private, because perfbench's tracer wraps public functions only: the
    writing time shows in the spans of cli, where select and bounds
    stream the pieces.
    """
    glue = [("," if j else "{") + f"\n      {json.dumps(name)}: "
            for j, name in enumerate(columns)]
    # the list is the last value of the top-level object: "[]\n}"
    yield json.dumps(head | {key: []}, indent=2)[:-4] + "[\n    "
    yield from _row_blocks(list(columns.values()), glue,
                           "\n    },\n    " + glue[0])
    yield "\n    }\n  ]\n}\n"


def _row_blocks(columns, glue, sep):
    """The rows of the arrays ``columns`` of n >= 1 elements as text, in
    blocks of _CHUNK_ROWS rows.

    Row i is, for each column j, ``glue[j]`` and the JSON token (see
    _tokens) of element i of column j, but ``sep`` stands for ``glue[0]``
    after the first row, to close the row before.  A block is one
    interleaved join: of 2 m k strings for m columns and k rows, the glue
    of row i, column j is at 2 (m i + j) and its token after it.  The glue
    is laid out once for a full block and once for a shorter last one;
    each block then assigns only its tokens and its first glue.
    """
    m = len(columns)
    n = len(columns[0])
    parts = []
    for lo in range(0, n, _CHUNK_ROWS):
        k = min(_CHUNK_ROWS, n - lo)
        if len(parts) != 2 * m * k:
            parts = [""] * (2 * m * k)
            parts[::2] = [sep, *glue[1:]] * k
        # only the table's first row opens with glue[0]; every other
        # row closes the one before it
        parts[0] = sep if lo else glue[0]
        for j, col in enumerate(columns):
            parts[2 * j + 1::2 * m] = _tokens(col[lo:lo + k])
        yield "".join(parts)


def load_csv(path) -> Dataset:
    """Read a dataset from the canonical CSV layout.

    ``_parse_blocks`` parses the data rows.  A file that it does not take
    goes through ``_parse_rows``, whose errors name ``path:lineno``.  Both
    give each field the float64 of ``float()``, so the arrays are the same
    either way.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            d = _check_header(path, next(csv.reader(fh), None))
            arr = _parse_blocks(fh.buffer, d)
        if arr is None:
            arr = _parse_rows(path, d)
    except UnicodeDecodeError as exc:
        raise DelpointError(f"{path}: not UTF-8 text (byte "
                            f"0x{exc.object[exc.start]:02x}: {exc.reason})"
                            ) from None
    return Dataset.from_arrays(arr[:, :d], arr[:, d])


# bytes that _parse_blocks reads at a time; a block is cut back to its last
# "\n", and its Python floats are all that is held besides the result.
# The parse takes 0.08-0.09 s at n = 2e5, d = 3 with any size from 64 KiB
# to 1 MiB, but bigger blocks leave more heap behind: `select --out` peaks
# at 62.3 MB of RSS with 64 KiB and 63.5 MB with 1 MiB, and at n = 1e5,
# d = 1 at 45.3 and 48.1 MB.
_READ_BLOCK = 1 << 16
# the bytes of the number tokens that _parse_blocks parses, and the
# blanks that JSON and float() both skip around them
_NUMBER_BYTES = b"0123456789.eE+- \t"
# what can follow an int "-0" token, which orjson reads as the int 0
_MINUS_ZERO_ENDS = (b"-0,", b"-0\n", b"-0 ", b"-0\t")


def _parse_blocks(fh, d: int):
    """The data rows of the binary file ``fh``, the lines after its first,
    as an (n, d + 1) array, or None when they are not plain enough for
    this reader.

    A block of whole lines is read with CRLF as LF and without its empty
    lines, which csv skips too.  It is taken when only number bytes,
    spaces, tabs, commas and newlines are left in it and every line holds
    exactly d commas; it is then parsed as one JSON array by orjson, whose
    number reader rounds as ``float()`` does (the tests pin it).  JSON
    skips spaces and tabs between tokens as ``float()`` does around a
    field, and rejects them inside one ("1 2").  A block with anything
    else (a line of blanks, quotes, nan, a token that JSON rejects such as
    1e400) or a file without data rows gives None for the whole file.  So
    does a block with a "-0" token, as orjson reads it as the int 0 where
    ``float("-0")`` is -0.0: when a zero came from an int token and "-0"
    is followed by a comma, newline, space or tab.
    orjson is imported here, so ``import delpoint.cli`` does not load it.
    """
    import orjson

    fh.seek(0)
    head = fh.readline()
    if b"\r" in head.removesuffix(b"\n").removesuffix(b"\r"):
        return None  # csv ends the header at a lone CR; readline does not
    row = b"," * d + b"\n"
    parts = []
    for block in _line_blocks(fh):
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n")
        if not _plain(block, row):
            # an empty line fails the check; csv skips it, so drop each,
            # one that opens the block included, and check the rest again.
            # Searching every block for them took 0.02 s at n = 2e5
            while b"\n\n" in block:
                block = block.replace(b"\n\n", b"\n")
            block = block.removeprefix(b"\n")
            if not block:
                continue
            if not _plain(block, row):
                return None
        try:
            vals = orjson.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
        except orjson.JSONDecodeError:
            return None
        arr = np.array(vals, dtype=np.float64)
        if (not arr.all() and any(end in block for end in _MINUS_ZERO_ENDS)
                and any(type(vals[i]) is int
                        for i in np.flatnonzero(arr == 0).tolist())):
            return None
        parts.append(arr.reshape(-1, d + 1))
    return np.concatenate(parts) if parts else None


def _plain(block: bytes, row: bytes) -> bool:
    """Whether, with the number bytes and blanks deleted, ``block`` is
    ``row``, d commas and a newline, once per line."""
    seps = block.translate(None, _NUMBER_BYTES)
    return seps == row * (len(seps) // len(row))


def _line_blocks(fh):
    """The rest of the binary file ``fh`` in blocks of whole lines, each
    ending in "\n" (one is added to a last line without it)."""
    rest = b""
    while chunk := fh.read(_READ_BLOCK):
        buf = rest + chunk
        cut = buf.rfind(b"\n") + 1
        if cut:
            yield buf[:cut]
        rest = buf[cut:]
    if rest:
        yield rest + b"\n"


def _check_header(path, header) -> int:
    """Feature dimension d of the header row x0,...,x{d-1},y."""
    if header is None:
        raise DelpointError(f"{path}: empty file")
    if len(header) < 2 or header[-1] != "y":
        raise DelpointError(f"{path}: header must be x0,...,x{{d-1}},y")
    for j, name in enumerate(header[:-1]):
        if name != f"x{j}":
            raise DelpointError(f"{path}: unexpected column {name!r} at {j}")
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
                raise DelpointError(
                    f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
            try:
                data.append([float(v) for v in row])
            except ValueError as exc:
                raise DelpointError(f"{path}:{lineno}: {exc}") from None
    if not data:
        raise DelpointError(f"{path}: no data rows")
    return np.asarray(data, dtype=np.float64)
