import dataclasses

import numpy as np
import pytest

from delpoint import (
    CandidateScore,
    Dataset,
    DegenerateNoise,
    DomainError,
    HyperParams,
    WouldEmptyDataset,
    advantage_target,
    find_perfect_deleted_point,
    rank_candidates,
    selection_to_json,
)
from delpoint.snr import scan_arrays, snr_denominator

from conftest import assign_labels_1d, random_dataset, tuned_dataset
from _oracles import json_doc_indent2, select_strict_loop


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
        assert result.best is not None
        assert result.best.index == 0
        assert result.best.distance <= 1e-9
        assert result.target == pytest.approx(target, abs=1e-12)

    def test_zero_delta_rejects_generic_data(self, rng):
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=0.0)
        ds = random_dataset(rng, n=20, d=2)
        result = find_perfect_deleted_point(ds, np.zeros(2), hp)
        assert result.best is None
        assert [len(col) for col in result.scores.values()] == [20] * 6

    def test_strict_mode_matches_loop_oracle(self, rng):
        hp = HyperParams(gamma=0.02, sigma=1.5, alpha=0.05, delta=100.0)
        for _ in range(30):
            ds = random_dataset(rng, n=20, d=2)
            w = rng.normal(size=2)
            got = find_perfect_deleted_point(ds, w, hp, tie_break="paper")
            expect = select_strict_loop(ds.X.tolist(), ds.y.tolist(), w,
                                        hp.gamma, hp.sigma, hp.alpha, hp.delta)
            if expect is None:
                assert got.best is None
            else:
                assert got.best is not None and got.best.index == expect

    def test_strict_mode_keeps_last_on_ties(self, hp_default):
        # mirrored points produce bitwise-identical d_v
        ds = Dataset.from_arrays([[2.0], [-2.0], [1.0]], [3.0, -3.0, 0.5])
        w = np.array([0.1])
        a = scan_arrays(ds, w, hp_default)
        assert a["d_v"][0] == a["d_v"][1]
        got = find_perfect_deleted_point(ds, w, hp_default, tie_break="paper")
        sel = got.best.index
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
            assert got.best.index == key[0][2]

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
        assert got.best.index == 1  # smaller feature norm wins

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
        assert got.best.index == 1

    def test_lowest_id_breaks_full_ties(self, hp_default):
        ds = Dataset.from_arrays([[2.0], [2.0], [5.0]], [3.0, 3.0, 1.0])
        got = find_perfect_deleted_point(ds, [0.1], hp_default)
        dist = dict(zip(got.scores["ids"], got.scores["distance"]))
        if dist[0] <= dist[2]:
            assert got.best.index == 0

    def test_delta_boundary_closed(self, rng, hp_default):
        ds = random_dataset(rng, n=10, d=1)
        a = scan_arrays(ds, np.array([0.2]), hp_default)
        m = float(a["distance"].min())
        hp_at = HyperParams(gamma=hp_default.gamma, sigma=hp_default.sigma,
                            alpha=hp_default.alpha, delta=m)
        got = find_perfect_deleted_point(ds, np.array([0.2]), hp_at,
                                         tie_break="paper")
        assert got.best is not None  # distance exactly delta is accepted

    def test_determinism_byte_for_byte(self, rng, hp_default):
        ds = random_dataset(rng, n=25, d=3)
        w = rng.normal(size=3)
        a = selection_to_json(find_perfect_deleted_point(ds, w, hp_default))
        b = selection_to_json(find_perfect_deleted_point(ds, w, hp_default))
        assert a == b

    def test_error_propagation(self, rng):
        ds = random_dataset(rng, n=5, d=1)
        with pytest.raises(DegenerateNoise):
            find_perfect_deleted_point(
                ds, [0.0], HyperParams(gamma=0.0, sigma=2.0, alpha=0.01))
        single = Dataset.from_arrays([[1.0]], [1.0])
        with pytest.raises(WouldEmptyDataset):
            find_perfect_deleted_point(
                single, [0.0], HyperParams(gamma=0.01, sigma=2.0, alpha=0.01))
        with pytest.raises(DomainError):
            find_perfect_deleted_point(ds, [0.0],
                                       HyperParams(gamma=0.01, sigma=2.0,
                                                   alpha=0.01),
                                       tie_break="bogus")


class TestSelectionJson:
    """selection_to_json equals json.dumps(indent=2) of the row dicts."""

    @staticmethod
    def check(ds, w, hp, tie_break="norm-first"):
        result = find_perfect_deleted_point(ds, w, hp, tie_break=tie_break)
        head = {"format_version": 1, "target": result.target,
                "best": None if result.best is None
                else dataclasses.asdict(result.best)}
        names = [f.name for f in dataclasses.fields(CandidateScore)]
        columns = [result.scores[key] for key in
                   ("ids", "d_v", "eps_v", "distance", "advantage",
                    "feature_norm")]
        text = selection_to_json(result)
        assert text == json_doc_indent2(head, "scores", names, columns)
        return result, text

    @pytest.mark.parametrize("tie_break", ["norm-first", "paper"])
    def test_both_tie_breaks_with_both_eps_signs(self, rng, hp_default,
                                                tie_break):
        ds = random_dataset(rng, n=40, d=3)
        result, _ = self.check(ds, np.array([0.3, -0.2, 0.1]), hp_default,
                               tie_break)
        eps = result.scores["eps_v"]
        assert result.best is not None
        assert (eps < 0).any() and (eps > 0).any()

    def test_no_best(self, rng):
        ds = random_dataset(rng, n=12, d=2)
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=0.0)
        result, text = self.check(ds, np.zeros(2), hp)
        assert result.best is None
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


class TestRanking:
    def test_full_scan_when_k_is_n(self, rng, hp_default):
        ds = random_dataset(rng, n=12, d=2)
        w = rng.normal(size=2)
        ranked = rank_candidates(ds, w, hp_default, k=12)
        assert len(ranked) == 12
        assert sorted(s.index for s in ranked) == list(range(12))

    def test_top1_equals_selection(self, rng, hp_default):
        # a loop, not parametrize, so the test keeps its id
        for tie_break in ("norm-first", "paper"):
            for _ in range(10):
                ds = random_dataset(rng, n=10, d=2)
                w = rng.normal(size=2)
                top = rank_candidates(ds, w, hp_default, k=1,
                                      tie_break=tie_break)[0]
                best = find_perfect_deleted_point(ds, w, hp_default,
                                                  tie_break=tie_break).best
                assert best is not None
                assert top == best

    def test_tie_block_precedes_smaller_norm(self, hp_default):
        # points 0 and 1 tie within the window, 1 at the larger distance
        # but the smaller norm; point 2, just outside the window, has the
        # smallest norm of all.  The tie block ranks first, by norm.
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
        ranked = rank_candidates(ds, w, hp, k=5)
        assert [s.index for s in ranked[:3]] == [1, 0, 2]
        assert ranked[0] == find_perfect_deleted_point(ds, w, hp).best

    def test_distances_nondecreasing_within_window(self, rng, hp_default):
        ds = random_dataset(rng, n=30, d=2)
        w = rng.normal(size=2)
        ranked = rank_candidates(ds, w, hp_default, k=30)
        dist = [s.distance for s in ranked]
        for a, b in zip(dist, dist[1:]):
            assert b >= a - 1e-9

    def test_k_validated(self, rng, hp_default):
        ds = random_dataset(rng, n=5, d=1)
        with pytest.raises(DomainError):
            rank_candidates(ds, [0.0], hp_default, k=0)

    def test_truncation_prefix(self, rng, hp_default):
        ds = random_dataset(rng, n=9, d=2)
        w = rng.normal(size=2)
        full = rank_candidates(ds, w, hp_default, k=9)
        head = rank_candidates(ds, w, hp_default, k=4)
        assert head == full[:4]
