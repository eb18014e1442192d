import os
import tracemalloc

import numpy as np
import pytest

from delpoint import (
    Dataset,
    DelpointError,
    GenConfig,
    HyperParams,
    advantage_target,
    find_perfect_deleted_point,
    generate,
)
from delpoint import selector
from delpoint.cli import _SELECTION_COLUMNS, _selection_chunks
from delpoint.core import _json_chunks
from delpoint.snr import scan_arrays, snr_denominator

from conftest import assign_labels_1d, random_dataset, tuned_dataset
from _oracles import (json_doc_indent2, select_loop, select_strict_loop,
                      selection_doc_indent2)


def selection_json(result):
    """selection.json of ``result``: the streamed pieces, joined."""
    return "".join(_selection_chunks(result))


def solve_label(X, y, index, w, hp, want_d_v):
    """Label for `index` making its d_v hit want_d_v (holding others fixed)."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    n = X.shape[0]
    w = np.asarray(w, float)
    xv = X[index]
    rest = np.add.reduce([y[i] * X[i] for i in range(n) if i != index])
    a = xv * (n - 1) / n
    s_xx = X.T @ X / n
    b = -xv * float(xv @ w) - rest / n + s_xx @ w
    c = want_d_v * snr_denominator(n, hp)
    # ||a y + b||^2 = c^2
    qa = float(a @ a)
    qb = 2.0 * float(a @ b)
    qc = float(b @ b) - c * c
    disc = qb * qb - 4 * qa * qc
    assert disc >= 0, "requested d_v unreachable for this feature vector"
    return (-qb + np.sqrt(disc)) / (2 * qa)


class TestSelection:
    def test_exact_target_point_selected(self, rng, hp_default):
        w = np.array([0.4])
        target = advantage_target(hp_default.alpha)
        ds = tuned_dataset(rng, hp_default, [target], w)
        result = find_perfect_deleted_point(ds, w, hp_default)
        assert result["best"] is not None
        assert result["best"] == 0
        assert result["distance"][result["best"]] <= 1e-9
        assert result["target"] == pytest.approx(target, abs=1e-12)

    def test_zero_delta_rejects_generic_data(self, rng):
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=0.0)
        ds = random_dataset(rng, n=20, d=2)
        result = find_perfect_deleted_point(ds, np.zeros(2), hp)
        assert result["best"] is None
        # the scan's dict without its numerator, with best added
        assert set(result) == {*scan_arrays(ds, np.zeros(2), hp),
                               "best"} - {"numerator"}
        assert [len(result[key]) for key in _SELECTION_COLUMNS] == [20] * 4

    def test_strict_mode_matches_loop_oracle(self, rng):
        hp = HyperParams(gamma=0.02, sigma=1.5, alpha=0.05, delta=100.0)
        for _ in range(30):
            ds = random_dataset(rng, n=20, d=2)
            w = rng.normal(size=2)
            got = find_perfect_deleted_point(ds, w, hp, tie_break="paper")
            expect = select_strict_loop(ds.X.tolist(), ds.y.tolist(), w,
                                        hp.gamma, hp.sigma, hp.alpha, hp.delta)
            assert got["best"] == expect

    def test_strict_mode_keeps_last_on_ties(self, hp_default):
        # mirrored points produce bitwise-identical d_v
        ds = Dataset.from_arrays([[2.0], [-2.0], [1.0]], [3.0, -3.0, 0.5])
        w = np.array([0.1])
        a = scan_arrays(ds, w, hp_default)
        assert a["d_v"][0] == a["d_v"][1]
        got = find_perfect_deleted_point(ds, w, hp_default, tie_break="paper")
        sel = got["best"]
        tie_min = min(a["distance"][0], a["distance"][1])
        if a["distance"][2] >= tie_min:
            assert sel == 1  # the later twin wins under <= replacement

    def test_default_mode_matches_brute_force(self, rng):
        hp = HyperParams(gamma=0.02, sigma=1.5, alpha=0.05, delta=100.0)
        for _ in range(30):
            ds = random_dataset(rng, n=15, d=2)
            w = rng.normal(size=2)
            got = find_perfect_deleted_point(ds, w, hp)
            a = scan_arrays(ds, w, hp)
            m = a["distance"].min()
            tie = np.flatnonzero(a["distance"] <= m + 1e-9)
            key = sorted((a["feature_norm"][i], a["eps_v"][i] < 0, i)
                         for i in tie)
            assert got["best"] == key[0][2]

    def test_norm_preference_inside_tie_window(self, rng):
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.05, delta=100.0)
        w = np.array([0.3, -0.2])
        target = advantage_target(hp.alpha)
        rng2 = np.random.default_rng(77)
        X = np.array([[3.0, 0.0], [0.0, 0.5],
                      *rng2.normal(2.0, 0.3, (6, 2))])
        y = rng2.normal(0.0, 1.0, 8)
        ds = None
        for _ in range(60):
            for i in range(2):
                y[i] = solve_label(X, y, i, w, hp, target)
        ds = Dataset.from_arrays(X, y)
        a = scan_arrays(ds, w, hp)
        assert abs(a["distance"][0] - a["distance"][1]) <= 1e-9
        got = find_perfect_deleted_point(ds, w, hp)
        assert got["best"] == 1  # smaller feature norm wins

    def test_nonnegative_eps_preferred_at_equal_norm(self, hp_default):
        hp = hp_default
        w = np.array([0.25])
        target = advantage_target(hp.alpha)
        h = 1e-3
        X = np.array([[2.0], [-2.0], [1.3], [0.9]])
        y = assign_labels_1d(X, w, hp,
                             [target - h, target + h, target + 3.0])
        ds = Dataset.from_arrays(X, y)
        a = scan_arrays(ds, w, hp)
        assert abs(a["distance"][0] - a["distance"][1]) <= 1e-9
        assert a["feature_norm"][0] == a["feature_norm"][1]
        assert a["distance"][2:].min() > a["distance"][0] + 1e-9
        got = find_perfect_deleted_point(ds, w, hp)
        assert got["best"] == 1

    def test_lowest_id_breaks_full_ties(self, hp_default):
        ds = Dataset.from_arrays([[2.0], [2.0], [5.0]], [3.0, 3.0, 1.0])
        got = find_perfect_deleted_point(ds, [0.1], hp_default)
        dist = dict(zip(got["index"], got["distance"]))
        if dist[0] <= dist[2]:
            assert got["best"] == 0

    def test_delta_boundary_closed(self, rng, hp_default):
        ds = random_dataset(rng, n=10, d=1)
        a = scan_arrays(ds, np.array([0.2]), hp_default)
        m = float(a["distance"].min())
        hp_at = HyperParams(gamma=hp_default.gamma, sigma=hp_default.sigma,
                            alpha=hp_default.alpha, delta=m)
        got = find_perfect_deleted_point(ds, np.array([0.2]), hp_at,
                                         tie_break="paper")
        assert got["best"] is not None  # distance exactly delta is accepted

    def test_determinism_byte_for_byte(self, rng, hp_default):
        ds = random_dataset(rng, n=25, d=3)
        w = rng.normal(size=3)
        a = selection_json(find_perfect_deleted_point(ds, w, hp_default))
        b = selection_json(find_perfect_deleted_point(ds, w, hp_default))
        assert a == b

    def test_error_propagation(self, rng):
        ds = random_dataset(rng, n=5, d=1)
        with pytest.raises(DelpointError, match="sigma = 0 or gamma = 0"):
            find_perfect_deleted_point(
                ds, [0.0], HyperParams(gamma=0.0, sigma=2.0, alpha=0.01))
        single = Dataset.from_arrays([[1.0]], [1.0])
        with pytest.raises(DelpointError,
                           match="signal-to-noise ratio needs n >= 2"):
            find_perfect_deleted_point(
                single, [0.0], HyperParams(gamma=0.01, sigma=2.0, alpha=0.01))
        with pytest.raises(DelpointError, match="tie_break must be one of"):
            find_perfect_deleted_point(ds, [0.0],
                                       HyperParams(gamma=0.01, sigma=2.0,
                                                   alpha=0.01),
                                       tie_break="bogus")


class TestSelectionJson:
    """selection.json equals json.dumps(indent=2) of the row dicts."""

    @staticmethod
    def check(ds, w, hp, tie_break="norm-first"):
        result = find_perfect_deleted_point(ds, w, hp, tie_break=tie_break)
        text = selection_json(result)
        assert text == selection_doc_indent2(result)
        return result, text

    @pytest.mark.parametrize("tie_break", ["norm-first", "paper"])
    def test_both_tie_breaks_with_both_eps_signs(self, rng, hp_default,
                                                tie_break):
        ds = random_dataset(rng, n=40, d=3)
        result, _ = self.check(ds, np.array([0.3, -0.2, 0.1]), hp_default,
                               tie_break)
        eps = result["eps_v"]
        assert result["best"] is not None
        assert (eps < 0).any() and (eps > 0).any()

    def test_streamed_peak_memory(self, hp_default):
        # selection.json of 1e5 points, streamed to the null device: only
        # a block of rows is alive at a time, where the joined document
        # holds every token string and the text at once
        ds = generate(GenConfig(n=100_000, extra_features=2, seed=5))
        result = find_perfect_deleted_point(ds, np.zeros(3), hp_default)
        size = 0
        tracemalloc.start()
        try:
            with open(os.devnull, "w", encoding="utf-8") as sink:
                for chunk in _selection_chunks(result):
                    sink.write(chunk)
                    size += len(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == len(selection_json(result))
        assert peak < size / 3

    def test_no_best(self, rng):
        ds = random_dataset(rng, n=12, d=2)
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=0.0)
        result, text = self.check(ds, np.zeros(2), hp)
        assert result["best"] is None
        assert '"best": null' in text

    def test_two_points(self, hp_default):
        ds = Dataset.from_arrays([[1.0], [-2.5]], [0.5, 3.0])
        self.check(ds, np.array([0.1]), hp_default)

    @pytest.mark.parametrize("scale", [1e-150, 1e20])
    def test_exponent_reprs(self, rng, hp_default, scale):
        ds = Dataset.from_arrays(rng.normal(size=(30, 2)) * scale,
                                 rng.normal(size=30) * scale)
        _, text = self.check(ds, np.array([0.5, -1.0]), hp_default)
        assert ("e-150" in text) if scale < 1 else ("e+20" in text)

    def test_negative_exponent_eps(self, rng, hp_default):
        # d_v within 1e-5 of the target on both sides: eps_v and distance
        # print in exponent form, eps_v with and without a sign
        target = advantage_target(hp_default.alpha)
        w = np.array([0.4])
        ds = tuned_dataset(rng, hp_default,
                           [target - 2.5e-7, target - 1e-5, target + 3e-6], w)
        result, _ = self.check(ds, w, hp_default)
        eps = [repr(v) for v in result["eps_v"].tolist()]
        assert any(t.startswith("-") and "e-" in t for t in eps)
        assert any(not t.startswith("-") and "e-" in t for t in eps)

    @staticmethod
    def check_hand_built(eps, distance):
        """The six columns of format 1, with its odd tokens, through the
        encoder itself: selection.json no longer writes distance."""
        eps = np.asarray(eps)
        n = eps.size
        names = ["index", "d_v", "eps_v", "distance", "advantage",
                 "feature_norm"]
        columns = [np.arange(n), eps + 4.0, eps, np.asarray(distance),
                   np.full(n, 0.25), np.linspace(0.5, 1.0, n)]
        head = {"format_version": 1, "target": 4.0, "best": None}
        text = "".join(_json_chunks(head, "scores", dict(zip(names,
                                                             columns))))
        assert text == json_doc_indent2(head, "scores", names, columns)

    def test_distance_tokens_from_eps(self):
        eps = np.array([-2.5e-07, 1e-05, -0.0, 0.0, -1e+16, -5e-324,
                        -np.inf, 3.5])
        self.check_hand_built(eps, np.abs(eps))

    @pytest.mark.parametrize("eps, distance", [
        ([-2.5e-07, 1e-05, 0.0], [2.5e-07, 1e-05, 1.0]),
        ([-2.5e-07, 1e-05, 0.0], [2.5e-07, -1e-05, 0.0]),
        ([-2.5e-07, 1e-05, 0.0], [2.5e-07, 1e-05, -0.0]),
        ([-2.5e-07, np.nan, 0.0], [2.5e-07, np.nan, 0.0]),
        ([0.0, -0.0, 0.0], np.zeros(3, dtype=np.int64)),
    ], ids=["other", "signed", "negative-zero", "nan", "int"])
    def test_distance_encoded_itself(self, eps, distance):
        self.check_hand_built(eps, distance)


class TestRanking:
    """The selection order of the tie rules, through
    find_perfect_deleted_point, _pick and the select_loop oracle."""

    def test_top1_equals_selection(self, rng, hp_default):
        # a loop, not parametrize, so the test keeps its id
        for tie_break in ("norm-first", "paper"):
            for _ in range(10):
                ds = random_dataset(rng, n=10, d=2)
                w = rng.normal(size=2)
                result = find_perfect_deleted_point(ds, w, hp_default,
                                                    tie_break=tie_break)
                pos = select_loop(scan_arrays(ds, w, hp_default),
                                  hp_default.delta, tie_break)
                assert type(result["best"]) is int and result["best"] == pos

    def test_tie_block_precedes_smaller_norm(self, hp_default):
        # points 0 and 1 tie within the window, 1 at the larger distance
        # but the smaller norm; point 2, just outside the window, has the
        # smallest norm of all.  The tie block comes first, by norm.
        hp = hp_default
        w = np.array([0.25])
        target = advantage_target(hp.alpha)
        h = 1e-3
        X = np.array([[2.0], [-1.5], [0.5], [1.3], [0.9]])
        y = assign_labels_1d(X, w, hp, [target - h, target + h + 5e-10,
                                        target + 2 * h, target + 3.0])
        ds = Dataset.from_arrays(X, y)
        a = scan_arrays(ds, w, hp)
        assert 0.0 < a["distance"][1] - a["distance"][0] <= 1e-9
        assert a["distance"][2] > a["distance"][0] + 1e-9
        assert a["feature_norm"][2] < a["feature_norm"][1]
        # select, take the choice out of the scan, and select again
        dist, order = a["distance"].copy(), []
        for _ in range(3):
            pos = int(selector._pick(dist, a["eps_v"], a["feature_norm"],
                                     hp.delta, "norm-first"))
            assert pos == select_loop(a | {"distance": dist}, hp.delta,
                                      "norm-first")
            order.append(pos)
            dist[pos] = np.inf
        assert order == [1, 0, 2]
        assert find_perfect_deleted_point(ds, w, hp)["best"] == 1

    @staticmethod
    def batch_rows(rng):
        """(K, n) eps and dist rows of engineered ties, and fnorm (n,).

        Rows: 0 duplicated points (columns 1 and 3 are one point); 1 equal
        norms with opposite eps signs; 2 no point clears delta = 0.5; 3 the
        minimum masked to inf; 4 a tie inside the window, the larger norm
        nearer; 5 a minimum exactly at delta; 6 one unmasked column; 7 all
        masked; then random rows over a few eps values.
        """
        fnorm = np.array([3.0, 1.0, 2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0])
        eps = np.full((8, 10), 0.45)
        eps[0, [1, 3]] = 0.2
        eps[1, [1, 3, 6]] = [-0.2, 0.2, -0.2]
        eps[2] = rng.choice([-2.0, 1.0, 3.0], 10)
        eps[3, [4, 7]] = [0.1, -0.3]
        eps[4, [2, 1]] = [0.2, 0.2 + 5e-10]
        eps[5] = 0.6
        eps[5, [8, 9]] = [-0.5, 0.5]
        eps[6] = rng.normal(size=10)
        eps[6, 5] = -0.3
        eps = np.concatenate(
            [eps, rng.choice([-0.3, -0.2, 0.2, 0.2 + 4e-10, 0.3, 0.6],
                             (40, 10))])
        dist = np.abs(eps)
        dist[3, 4] = np.inf
        dist[6, np.arange(10) != 5] = np.inf
        dist[7] = np.inf
        dist[8:][rng.random((40, 10)) < 0.3] = np.inf
        return eps, dist, fnorm

    @pytest.mark.parametrize("tie_break", ["norm-first", "paper"])
    def test_batch_rows_match_select_loop(self, rng, tie_break):
        # every row of one (K, n) call is the loop's choice for that row
        eps, dist, fnorm = self.batch_rows(rng)
        got = selector._pick(dist, eps, fnorm, 0.5, tie_break)
        assert got.shape == (len(dist),)
        want = [select_loop({"distance": d, "eps_v": e, "feature_norm": fnorm,
                             "index": np.arange(10)}, 0.5, tie_break)
                for d, e in zip(dist, eps)]
        assert got.tolist() == [-1 if pos is None else pos for pos in want]
        for k in range(len(dist)):
            assert selector._pick(dist[k], eps[k], fnorm, 0.5,
                                  tie_break) == got[k]
        assert got[:8].tolist() == {
            "norm-first": [1, 3, -1, 7, 1, 9, 5, -1],
            "paper": [3, 6, -1, 7, 2, 9, 5, -1]}[tie_break]
