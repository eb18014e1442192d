"""Scan the dataset and pick the point whose d_v is closest to the target.

The selected "perfect deleted point" minimizes distance = |d_v - target|
with target = 2 Phi_inv(1 - alpha).  If even the minimum distance exceeds
the tolerance delta, no point qualifies and ``best`` is None.

Tie-breaking (``tie_break``):

* ``norm-first`` (default): candidates within 1e-9 of the minimum distance
  form a tie set; inside it prefer the smallest feature norm (smallest
  risk-change bounds), then nonnegative eps_v over negative (zero privacy
  floor), then the lowest original id.
* ``paper``: faithful single-pass semantics of the published scan loop,
  where a candidate at distance <= the running minimum replaces the
  incumbent, so the LAST point attaining the minimum wins and a distance
  exactly equal to delta is accepted.

``rank_candidates`` lists points in the same order.  Scores stay in the
scan's columns; the advantage is computed only for reported rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .core import Dataset, HyperParams, _json_rows
from .errors import DomainError
from .snr import CandidateScore, membership_advantage, scan_arrays

SELECTION_JSON_FORMAT_VERSION = 1

TIE_WINDOW = 1e-9

_TIE_BREAKS = ("norm-first", "paper")

# column keys, in the order of the CandidateScore fields they fill
_COLUMNS = ("ids", "d_v", "eps_v", "distance", "advantage", "feature_norm")
_FIELDS = tuple(f.name for f in fields(CandidateScore))


@dataclass(frozen=True)
class SelectionResult:
    """Full scan plus the chosen candidate (None when none clears delta).

    ``scores`` maps each of ids, d_v, eps_v, distance, advantage and
    feature_norm to an array over the points in dataset order.
    """

    target: float
    best: Optional[CandidateScore]
    scores: dict


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in _TIE_BREAKS:
        raise DomainError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")


def _order(a: dict, tie_break: str) -> np.ndarray:
    """Positions of the scan ``a`` in selection order, best first."""
    dist, ids = a["distance"], a["ids"]
    if tie_break == "paper":
        # distance ascending; equal distances ordered last-wins first
        return np.lexsort((-ids, dist))
    m = dist.min()
    key = np.where(dist <= m + TIE_WINDOW, m, dist)
    return np.lexsort((ids, a["eps_v"] < 0, a["feature_norm"], key))


def _selected(a: dict, delta: float, tie_break: str) -> Optional[int]:
    if a["distance"].min() > delta:
        return None
    return int(_order(a, tie_break)[0])


def _columns(a: dict, alpha: float, rows=slice(None)) -> dict:
    """The reported columns of the scan rows ``rows``, advantage included."""
    adv = membership_advantage(a["d_v"][rows], alpha)
    return {key: adv if key == "advantage" else a[key][rows]
            for key in _COLUMNS}


def _candidate(cols: dict, i: int) -> CandidateScore:
    index, *values = (cols[key][i] for key in _COLUMNS)
    return CandidateScore(int(index), *map(float, values))


def find_perfect_deleted_point(ds: Dataset, w, hp: HyperParams,
                               tie_break: str = "norm-first") -> SelectionResult:
    """Score every point and return the argmin-of-distance selection.

    O(n log n + n d + d^2) time, O(n) extra space; deterministic for fixed
    inputs.
    """
    _check_tie_break(tie_break)
    a = scan_arrays(ds, w, hp)
    pos = _selected(a, hp.delta, tie_break)
    scores = _columns(a, hp.alpha)
    best = None if pos is None else _candidate(scores, pos)
    return SelectionResult(target=a["target"], best=best, scores=scores)


def select_position(ds: Dataset, w, hp: HyperParams,
                    tie_break: str = "norm-first") -> Optional[int]:
    """Position (not id) of the selected point; scan-only fast path."""
    _check_tie_break(tie_break)
    return _selected(scan_arrays(ds, w, hp), hp.delta, tie_break)


def rank_candidates(ds: Dataset, w, hp: HyperParams, k: int,
                    tie_break: str = "norm-first") -> list[CandidateScore]:
    """Top-k candidates by ascending distance, in selection tie order."""
    _check_tie_break(tie_break)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    a = scan_arrays(ds, w, hp)
    top = _columns(a, hp.alpha, _order(a, tie_break)[:k])
    return [_candidate(top, i) for i in range(top["ids"].size)]


def selection_to_json(result: SelectionResult) -> str:
    """Canonical JSON serialization; byte-stable for identical inputs."""
    head = {"format_version": SELECTION_JSON_FORMAT_VERSION,
            "target": result.target,
            "best": None if result.best is None else asdict(result.best)}
    return _json_rows(head, "scores", _FIELDS,
                     [result.scores[key] for key in _COLUMNS])
