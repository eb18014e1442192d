"""Scan the dataset and pick the point whose d_v is closest to the target.

The selected "perfect deleted point" minimizes distance = |d_v - target|
with target = -2 Phi_inv(alpha), equal to 2 Phi_inv(1 - alpha).  If even
the minimum distance exceeds the tolerance delta, no point qualifies and
``best`` is None.

Tie-breaking (``tie_break``):

* ``norm-first`` (default): candidates within 1e-9 of the minimum distance
  form a tie set; inside it prefer the smallest feature norm (smallest
  risk-change bounds), then nonnegative eps_v over negative (zero privacy
  floor), then the lowest position.
* ``paper``: faithful single-pass semantics of the published scan loop,
  where a candidate at distance <= the running minimum replaces the
  incumbent, so the LAST point attaining the minimum wins and a distance
  exactly equal to delta is accepted.

Scores stay in the scan's columns: a selection is the dict of
``snr.scan_arrays`` with the advantage column and ``best`` added and the
numerator (which only the bounds read) dropped, and the CLI picks the columns it writes to selection.json.
"""

from __future__ import annotations

import numpy as np

from ._choices import _TIE_BREAKS
from .core import Dataset, HyperParams
from .errors import DelpointError
from .snr import membership_advantage, scan_arrays

TIE_WINDOW = 1e-9


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in _TIE_BREAKS:
        raise DelpointError(
            f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")


def _pick(dist, eps, fnorm, delta: float, tie_break: str) -> np.ndarray:
    """Selected position along the last axis; -1 where none clears delta.

    The tie rules of the module docstring for one scan (n,) or a batch
    (K, n); fnorm is (n,).  A distance of inf marks a non-candidate.  One
    pass finds the tie sets of the rows whose minimum clears delta, and
    one sort by row and the rules orders those alone.
    """
    shape, n = dist.shape[:-1], dist.shape[-1]
    dist = dist.reshape(-1, n)
    m = dist.min(axis=1, keepdims=True)
    ok = m <= delta
    if tie_break == "paper":
        # the last position attaining the minimum wins
        flat = np.flatnonzero(dist == np.where(ok, m, np.nan))
        keys = (-flat,)
    else:
        # the smallest norm, then nonnegative eps, then the lowest position
        flat = np.flatnonzero(dist <= np.where(ok, m + TIE_WINDOW, -np.inf))
        keys = (flat, eps.reshape(-1)[flat] < 0, fnorm[flat % n])
    row = flat // n
    order = np.lexsort(keys + (row,))
    row, flat = row[order], flat[order]
    first = np.diff(row, prepend=-1) != 0
    pos = np.full(len(dist), -1)
    pos[row[first]] = flat[first] % n
    return pos.reshape(shape)


def find_perfect_deleted_point(ds: Dataset, w, hp: HyperParams,
                               tie_break: str = "norm-first") -> dict:
    """Score every point and return the argmin-of-distance selection.

    The dict of ``scan_arrays`` without numerator, so that its buffer is
    freed, and with two more keys: advantage, the membership advantage of
    each point, and best, the selected position (an int), or None when no
    point clears delta.  O(n d + d^2) time, O(n)
    extra space; deterministic for fixed inputs.
    """
    _check_tie_break(tie_break)
    a = scan_arrays(ds, w, hp)
    del a["numerator"]
    pos = int(_pick(a["distance"], a["eps_v"], a["feature_norm"], hp.delta,
                    tie_break))
    a["advantage"] = membership_advantage(a["d_v"], hp.alpha)
    a["best"] = pos if pos >= 0 else None
    return a
