import math
import warnings

import numpy as np
import pytest

from delpoint import (
    Dataset,
    DelpointError,
    HyperParams,
    advantage_target,
    membership_advantage,
    find_perfect_deleted_point,
)
from delpoint._kernels import scan_norms
from delpoint.cli import _SCORES_CSV_HEADER, _SELECTION_COLUMNS
from delpoint.core import _write_csv
from delpoint.gauss import phi_inv
from delpoint.snr import scan_arrays, snr_denominator

from conftest import (NEAR_ALPHAS, NEAR_EPS, assign_labels_1d, edge_pair,
                      random_dataset)
from _oracles import (advantage_formula, snr_by_deletion, snr_definition_form,
                      target_gap_mp)

# Frozen from the mpmath/bisection oracle.
TARGET_001 = 4.652695748081682      # -2 * phi_inv(0.01)
TARGET_005 = 3.2897072539029445     # -2 * phi_inv(0.05)
ADV_D1_A005 = 0.690488977158556     # |phi(-phi_inv(0.05) - 1) - 0.05|


def numerators(ds, w):
    """||(y_i - <x_i, w>) x_i - (s_yx - s_xx w)|| per point, from the kernel."""
    w = np.asarray(w, dtype=float)
    g = ds.s_yx - ds.s_xx @ w
    return scan_norms(ds.X, ds.y, w, g)


def d_v(ds, index, w, hp):
    return scan_arrays(ds, w, hp)["d_v"][index]


class TestSnrForms:
    def test_t3_closed_form(self, t3, hp_default):
        numer = numerators(t3, [0.5])[0]
        denom = snr_denominator(t3.n, hp_default)
        d = d_v(t3, 0, [0.5], hp_default)
        assert numer == pytest.approx(23 / 6, rel=1e-14)
        assert denom == pytest.approx(0.2, rel=1e-14)
        assert d == pytest.approx(23 / 1.2, rel=1e-13)
        assert d == pytest.approx(numer / denom, rel=1e-15)

    def test_t3_matches_deletion_oracle(self, t3, hp_default):
        d_oracle = snr_by_deletion(t3.X.tolist(), t3.y.tolist(), 0, [0.5],
                                   hp_default.gamma, hp_default.sigma)
        assert d_v(t3, 0, [0.5], hp_default) == pytest.approx(
            d_oracle, rel=1e-12)

    def test_identical_points_give_zero(self, hp_default):
        ds = Dataset.from_arrays([[2.0]] * 5, [3.0] * 5)
        for i in range(5):
            assert d_v(ds, i, [0.7], hp_default) == \
                pytest.approx(0.0, abs=1e-12)
            assert snr_definition_form(
                ds.X, ds.y, i, [0.7], hp_default.gamma, hp_default.sigma) == \
                pytest.approx(0.0, abs=1e-12)

    def test_zero_feature_point_leaves_s_yx(self, hp_default):
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [0.0, 2.0, 3.0])
        expected = (np.linalg.norm(ds.s_yx)
                    / snr_denominator(ds.n, hp_default))
        assert d_v(ds, 0, [0.0], hp_default) == pytest.approx(expected,
                                                              rel=1e-14)

    def test_forms_agree_on_random_instances(self, rng):
        for _ in range(100):
            ds = random_dataset(rng)
            w = rng.normal(size=ds.dim)
            hp = HyperParams(gamma=float(rng.uniform(0.001, 1.0)),
                             sigma=float(rng.uniform(0.1, 5.0)),
                             alpha=0.05)
            i = int(rng.integers(ds.n))
            a = d_v(ds, i, w, hp)
            b = snr_definition_form(ds.X, ds.y, i, w, hp.gamma, hp.sigma)
            assert b == pytest.approx(a, rel=1e-10)

    def test_consistent_convention_scales(self, t3):
        hp_p = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01)
        hp_c = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01,
                           snr_convention="consistent")
        # one numerator, whatever the convention
        numer = numerators(t3, [0.5])[0]
        a = d_v(t3, 0, [0.5], hp_p)
        b = d_v(t3, 0, [0.5], hp_c)
        assert a == pytest.approx(numer / snr_denominator(t3.n, hp_p),
                                  rel=1e-15)
        assert b == pytest.approx(numer / snr_denominator(t3.n, hp_c),
                                  rel=1e-15)
        assert snr_denominator(t3.n, hp_c) == pytest.approx(
            (t3.n - 1) * 2.0 / 2.0, rel=1e-15)
        # the two conventions differ by sqrt(2 * gamma / (n - 1))
        ratio = np.sqrt(2 * 0.01 / (t3.n - 1))
        assert b * 1.0 == pytest.approx(a * ratio, rel=1e-12)

    def test_sigma_scaling_inverse(self, t3):
        base = d_v(t3, 1, [0.5],
                   HyperParams(gamma=0.01, sigma=2.0, alpha=0.01))
        for c in (0.5, 3.0, 10.0):
            scaled = d_v(t3, 1, [0.5],
                         HyperParams(gamma=0.01, sigma=2.0 * c, alpha=0.01))
            assert scaled == pytest.approx(base / c, rel=1e-12)

    def test_degenerate_noise_rejected(self, t3):
        with pytest.raises(DelpointError, match="sigma = 0 or gamma = 0"):
            scan_arrays(t3, [0.5],
                        HyperParams(gamma=0.0, sigma=2.0, alpha=0.01))
        with pytest.raises(DelpointError, match="sigma = 0 or gamma = 0"):
            scan_arrays(t3, [0.5],
                        HyperParams(gamma=0.01, sigma=0.0, alpha=0.01))

    @pytest.mark.parametrize("convention, gamma, sigma", [
        ("paper", 1e-300, 1e-300), ("consistent", 1.0, 5e-324)])
    def test_underflowing_noise_rejected(self, convention, gamma, sigma):
        # the denominator is a positive product that rounds to 0
        hp = HyperParams(gamma=gamma, sigma=sigma, alpha=0.01,
                         snr_convention=convention)
        ds = Dataset.from_arrays([[1.0], [2.0]], [2.0, 3.0])
        with pytest.raises(DelpointError, match="underflows to 0"):
            snr_denominator(ds.n, hp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DelpointError, match="underflows to 0"):
                scan_arrays(ds, [0.5], hp)
        assert [str(w.message) for w in caught] == []

    def test_singleton_rejected(self):
        ds = Dataset.from_arrays([[1.0]], [1.0])
        with pytest.raises(DelpointError,
                           match="signal-to-noise ratio needs n >= 2"):
            scan_arrays(ds, [0.5],
                        HyperParams(gamma=0.01, sigma=2.0, alpha=0.01))


class TestAdvantage:
    def test_zero_at_target(self):
        for alpha in (0.01, 0.05, 0.1):
            assert membership_advantage(advantage_target(alpha), alpha) <= 1e-10

    def test_maximal_at_zero_separation(self):
        assert membership_advantage(0.0, 0.01) == pytest.approx(0.98, abs=1e-12)
        assert membership_advantage(0.0, 0.05) == pytest.approx(0.90, abs=1e-12)

    def test_frozen_oracle_value(self):
        assert membership_advantage(1.0, 0.05) == pytest.approx(
            ADV_D1_A005, abs=1e-12)

    def test_matches_scipy_formula(self, rng):
        for _ in range(50):
            d = float(rng.uniform(0, 10))
            alpha = float(rng.uniform(0.005, 0.45))
            assert membership_advantage(d, alpha) == pytest.approx(
                advantage_formula(d, alpha), abs=1e-12)

    def test_strictly_positive_off_target(self):
        alpha = 0.05
        t = advantage_target(alpha)
        for d in (0.0, 0.5 * t, 0.9 * t, 1.1 * t, 2 * t, 5 * t):
            if d != t:
                assert membership_advantage(d, alpha) > 0.0
        # far beyond the target the advantage is alpha; the error's square
        # would overflow, and a RuntimeWarning fails the suite
        assert membership_advantage(1e300, 0.01) == 0.01

    def test_domain_errors(self):
        with pytest.raises(DelpointError,
                           match=r"alpha must lie in \(0, 0\.5\)"):
            membership_advantage(1.0, 0.6)
        with pytest.raises(DelpointError,
                           match="separation must be finite and >= 0"):
            membership_advantage(-0.5, 0.05)

    def test_alpha_where_one_minus_alpha_rounds_to_one(self):
        # 1 - 2^-54 rounds to 1, but the target -2 Phi_inv(alpha) is taken
        # from the lower tail, where alpha keeps its precision
        for alpha in (2.0 ** -54, 1e-17, 5e-324):
            target = advantage_target(alpha)
            assert math.isfinite(target) and target > 0.0
            assert math.isfinite(membership_advantage(1.0, alpha))
            assert membership_advantage(target, alpha) <= alpha

    def test_target_matches_high_precision_root(self):
        # the root of Phi(-t/2) = alpha at 80 digits, to 4 ulps, and the
        # advantage at the target is a vanishing fraction of alpha
        mp = pytest.importorskip("mpmath")
        with mp.workdps(80):
            for alpha in (0.25, 0.01, 1e-4, 1e-8, 1e-12, 1e-15, 1e-100,
                          1e-300):
                log_alpha = mp.log(mp.mpf(alpha))
                x = mp.findroot(lambda x: mp.log(mp.ncdf(x)) - log_alpha,
                                -mp.sqrt(-2 * log_alpha))
                exact = -2 * x
                target = advantage_target(alpha)
                assert abs(target - exact) <= 4 * math.ulp(float(exact))
                assert membership_advantage(target, alpha) / alpha < 1e-13

    def test_near_target_matches_high_precision(self):
        # the advantage of d is taken at its membership error
        # eps_v = d - advantage_target(alpha), as the scan reports it;
        # Phi(.) - alpha was 1.1e-4 off (relative) at alpha = 0.01,
        # eps_v = -1e-12
        mp = pytest.importorskip("mpmath")
        for alpha in NEAR_ALPHAS:
            target = advantage_target(alpha)
            d = target + NEAR_EPS
            eps = d - target  # exact: d and target are within a factor 2
            exact = np.array([float(abs(g)) for g in target_gap_mp(alpha, eps)])
            got = membership_advantage(d, alpha)
            assert np.all(np.abs(got - exact) <= 1e-13 * exact), alpha

    def test_series_and_difference_agree_at_the_edge(self):
        # adjacent separations on either side of |eps_v| (|z| + |eps_v|) = 1
        for alpha in NEAR_ALPHAS:
            z = phi_inv(alpha)
            target = advantage_target(alpha)

            def inside(e):
                eps = (target + e) - target
                return abs(eps) * (abs(z) + abs(eps)) <= 1.0

            for sign in (1.0, -1.0):
                near, far = (membership_advantage(target + e, alpha)
                             for e in edge_pair(z, inside, sign))
                assert abs(near - far) <= 1e-13 * far, (alpha, sign)

    def test_elementwise_matches_scalar_calls(self, rng):
        # separations take Phi(q - d) from its center into its far tail
        d = np.concatenate([[0.0, 1e-300], rng.uniform(0.0, 12.0, 300),
                            [40.0]])
        for alpha in (0.01, 0.05, 0.3):
            got = membership_advantage(d, alpha)
            assert isinstance(got, np.ndarray) and got.shape == d.shape
            scalar = [membership_advantage(float(v), alpha) for v in d]
            assert all(type(v) is float for v in scalar)
            assert got.tobytes() == np.array(scalar).tobytes()

    def test_elementwise_domain_errors(self):
        for bad in (-0.5, -1e-300, np.nan, np.inf):
            with pytest.raises(DelpointError,
                               match="separation must be finite and >= 0"):
                membership_advantage(np.array([1.0, bad, 2.0]), 0.05)
            with pytest.raises(DelpointError,
                               match="separation must be finite and >= 0"):
                membership_advantage(bad, 0.05)


def eps_column(alpha, d_vs):
    """The scan's eps_v on a 1-D dataset whose first points have the given
    d_v (the last point absorbs the slack)."""
    hp = HyperParams(gamma=0.01, sigma=2.0, alpha=alpha)
    w = np.array([0.3])
    X = np.array([[1.0], [2.0], [1.5], [0.7]])
    ds = Dataset.from_arrays(X, assign_labels_1d(X, w, hp, d_vs))
    return scan_arrays(ds, w, hp)["eps_v"]


class TestMembershipError:
    def test_zero_at_target(self):
        # bit for bit: default-alpha artifacts keep their bytes
        assert advantage_target(0.01) == TARGET_001
        assert eps_column(0.01, [TARGET_001, 1.0, 2.0])[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_negative_at_zero(self):
        assert eps_column(0.05, [0.0, 1.0, 2.0])[0] == pytest.approx(
            -TARGET_005, abs=1e-12)

    def test_positive_beyond_target(self):
        assert eps_column(0.01, [5.0, 1.0, 2.0])[0] == pytest.approx(
            5.0 - TARGET_001, abs=1e-12)

    def test_t3_column_matches_frozen_target(self, t3, hp_default):
        cols = scan_arrays(t3, [0.5], hp_default)
        assert cols["eps_v"][0] == pytest.approx(
            cols["d_v"][0] - TARGET_001, abs=1e-12)


class TestScan:
    def test_matches_per_point_calls(self, rng):
        ds = random_dataset(rng, n=15, d=3)
        w = rng.normal(size=3)
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        scores = find_perfect_deleted_point(ds, w, hp)
        assert [len(scores[key]) for key in _SELECTION_COLUMNS] == [ds.n] * 4
        # the column --scores-csv writes
        advantage = membership_advantage(scores["d_v"], hp.alpha)
        rows = zip(scores["index"], scores["d_v"], scores["eps_v"],
                   scores["distance"], advantage, scores["feature_norm"])
        for pos, (index, d, eps_v, distance, adv, fnorm) in enumerate(rows):
            single = snr_definition_form(ds.X, ds.y, pos, w,
                                         hp.gamma, hp.sigma)
            assert index == pos
            assert d == pytest.approx(single, rel=1e-12)
            assert eps_v == pytest.approx(
                single - advantage_target(0.05), abs=1e-10)
            assert distance == pytest.approx(abs(eps_v), abs=0)
            assert adv == pytest.approx(
                membership_advantage(float(d), 0.05), abs=1e-12)
            assert fnorm == pytest.approx(
                np.linalg.norm(ds.X[pos]), rel=1e-12)

    def test_scores_csv(self, tmp_path, t3, hp_default):
        scores = find_perfect_deleted_point(t3, [0.5], hp_default)
        scores["advantage"] = membership_advantage(scores["d_v"],
                                                   hp_default.alpha)
        path = tmp_path / "scores.csv"
        _write_csv(path, _SCORES_CSV_HEADER,
                   [scores[key] for key in _SCORES_CSV_HEADER])
        lines = path.read_text().splitlines()
        assert lines[0] == "index,d_v,eps_v,advantage,feature_norm"
        assert len(lines) == 1 + t3.n
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(23 / 1.2, rel=1e-12)
