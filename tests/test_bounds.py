import math
import warnings

import numpy as np
import pytest

from delpoint import (
    Dataset,
    DimensionMismatch,
    DomainError,
    FloorViolated,
    HyperParams,
    InvalidValue,
    NumericOverflow,
    WouldEmptyDataset,
    ZeroFeatureNorm,
    advantage_target,
    privacy_floor,
)
from delpoint.bounds import bounds_arrays
from delpoint.gauss import phi_inv
from delpoint.snr import scan_arrays

from conftest import NEAR_ALPHAS, NEAR_EPS, edge_pair, random_dataset
from _oracles import bounds_calc, privacy_floor_calc, target_gap_mp

# Frozen from the scipy-based reference calculator on the T3 fixture
# (index 0, w=[0.5], gamma=0.01, sigma=2, alpha=0.01).
T3_EPS = 14.513970918584985
T3_LOWER = -1.5
T3_UPPER = 7 / 3
T3_C = 0.1
T3_ACTUAL = 47 / 24
T3_ABS_RESIDUAL = 7 / 3

# Frozen from the mpmath phi oracle.
PF_NEG1_A005 = 0.19021616457866483


def t3_eps(t3, hp):
    return scan_arrays(t3, [0.5], hp)["eps_v"][0]


def scan_with(ds, w, hp, eps_v):
    """The scan of ds at w, with its eps_v column replaced by ``eps_v``."""
    return {**scan_arrays(ds, w, hp), "eps_v": eps_v}


def row(ds, index, w, hp, eps_v, b=None):
    """Row ``index`` of bounds_arrays when every point has error eps_v."""
    cols = bounds_arrays(scan_with(ds, w, hp, np.full(ds.n, eps_v)), hp, b=b)
    return {key: col.tolist()[index] for key, col in cols.items()}


class TestRiskChangeBounds:
    def test_t3_golden(self, t3, hp_default):
        eps = t3_eps(t3, hp_default)
        assert eps == pytest.approx(T3_EPS, rel=1e-12)
        rb = row(t3, 0, [0.5], hp_default, eps)
        assert rb["lower"] == pytest.approx(T3_LOWER, abs=1e-12)
        assert rb["upper"] == pytest.approx(T3_UPPER, abs=1e-12)
        assert rb["constant"] == pytest.approx(T3_C, rel=1e-12)
        assert rb["actual_delta"] == pytest.approx(T3_ACTUAL, rel=1e-12)
        assert rb["abs_residual_delta"] == pytest.approx(T3_ABS_RESIDUAL,
                                                         rel=1e-12)
        assert rb["contained_a"] is True
        assert rb["change_nonnegative"] is True

    def test_width_identity(self, rng):
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        target = advantage_target(hp.alpha)
        for _ in range(20):
            ds = random_dataset(rng, n=10, d=2)
            w = rng.normal(size=2)
            eps = float(rng.uniform(-target, 5.0))
            rb = row(ds, 3, w, hp, eps)
            width = 2.0 * (eps + target) * rb["constant"]
            assert rb["upper"] - rb["lower"] == pytest.approx(
                width, rel=1e-10, abs=1e-12)

    def test_lower_bound_drops_with_feature_norm(self, t3, hp_default):
        # same dataset and eps_v, a shrinking norm floor in place of ||x_v||
        vals = [row(t3, 0, [0.5], hp_default, 0.0, b=b)["lower"]
                for b in (1.0, 0.5, 0.25, 0.125, 0.0625)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_reference_calculator(self, rng):
        for _ in range(30):
            ds = random_dataset(rng, n=int(rng.integers(3, 20)), d=2)
            w = rng.normal(size=2)
            hp = HyperParams(gamma=float(rng.uniform(0.001, 0.5)),
                             sigma=float(rng.uniform(0.5, 4.0)),
                             alpha=float(rng.uniform(0.01, 0.4)))
            i = int(rng.integers(ds.n))
            eps = float(rng.uniform(0.0, 3.0))
            rb = row(ds, i, w, hp, eps)
            lo, hi, c = bounds_calc(ds.X.tolist(), ds.y.tolist(), i, w.tolist(),
                                    hp.gamma, hp.sigma, hp.alpha, eps)
            assert rb["lower"] == pytest.approx(lo, abs=1e-10)
            assert rb["upper"] == pytest.approx(hi, abs=1e-10)
            assert rb["constant"] == pytest.approx(c, rel=1e-10)

    def test_nonneg_assumption_flagged(self, t3, hp_default):
        # point 2 of T3 has above-average loss at w=0.5, so the
        # risk change from deleting it is negative
        eps = scan_arrays(t3, [0.5], hp_default)["eps_v"][2]
        rb = row(t3, 2, [0.5], hp_default, eps)
        assert rb["actual_delta"] < 0.0
        assert rb["change_nonnegative"] is False

    def test_zero_feature_rejected(self, hp_default):
        ds = Dataset.from_arrays([[1.0], [0.0], [2.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ZeroFeatureNorm):
            row(ds, 1, [0.5], hp_default, 0.0)
        # the whole-dataset call rejects before any row, naming the point
        # by its position
        with pytest.raises(ZeroFeatureNorm, match="point id 1 "):
            bounds_arrays(scan_arrays(ds, [0.5], hp_default), hp_default)

    def test_eps_v_must_cover_every_point(self, t3, hp_default):
        for eps_v in ([0.5], np.zeros(2), np.zeros(4)):
            with pytest.raises(DimensionMismatch):
                bounds_arrays(scan_with(t3, [0.5], hp_default, eps_v),
                              hp_default)
        # one-row calls are gone: a point's bounds are row i of the scan's
        with pytest.raises(TypeError):
            bounds_arrays(scan_arrays(t3, [0.5], hp_default), hp_default,
                          positions=[0])

    def test_non_finite_eps_v_rejected(self, t3, hp_default):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidValue, match="eps_v"):
                bounds_arrays(scan_with(t3, [0.5], hp_default,
                                        [bad, 0.0, 0.0]), hp_default)
            with pytest.raises(InvalidValue, match="eps_v"):
                bounds_arrays(scan_with(t3, [0.5], hp_default,
                                        [0.0, 0.0, bad]), hp_default, b=1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_scan_arithmetic(self, rng, d):
        # the interval divides by the feature_norm that selection ranks by,
        # and the residuals are the scan kernel's, bit for bit:
        # p = x_0 w_0; p += x_j w_j; r = y - p.  Magnitudes spread over
        # 1e-3 .. 1e3, so a sum in another order rounds differently.
        n = 1000
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, d))
        ds = Dataset.from_arrays(X, rng.normal(size=n))
        w = rng.normal(size=d)
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        scan = scan_arrays(ds, w, hp)
        cols = bounds_arrays(scan, hp)
        np.testing.assert_array_equal(
            cols["constant"], hp.sigma / scan["feature_norm"]
            * math.sqrt(hp.gamma / (2.0 * (n - 1))))
        p = ds.X[:, 0] * w[0]
        for j in range(1, d):
            p += ds.X[:, j] * w[j]
        r = ds.y - p
        np.testing.assert_array_equal(cols["actual_delta"],
                                      (np.mean(r * r) - r * r) / (n - 1))

    def test_singleton_rejected(self, hp_default):
        ds = Dataset.from_arrays([[1.0]], [1.0])
        with pytest.raises(WouldEmptyDataset):
            row(ds, 0, [0.5], hp_default, 0.0)

    def test_negative_implied_d_v_rejected(self, t3, hp_default):
        target = advantage_target(hp_default.alpha)
        with pytest.raises(DomainError):
            row(t3, 0, [0.5], hp_default, -target - 1.0)


class TestFloorVariant:
    def test_reduces_to_per_point_at_own_norm(self, t3, hp_default):
        eps = t3_eps(t3, hp_default)
        per_point = row(t3, 0, [0.5], hp_default, eps)
        floored = row(t3, 0, [0.5], hp_default, eps,
                      b=1.0)  # ||x_0|| = 1 = min norm
        for key in ("lower", "upper", "constant"):
            assert floored[key] == pytest.approx(per_point[key], rel=1e-12)

    def test_smaller_floor_widens(self, t3, hp_default):
        eps = t3_eps(t3, hp_default)
        wide = row(t3, 0, [0.5], hp_default, eps, b=0.5)
        tight = row(t3, 0, [0.5], hp_default, eps, b=1.0)
        assert (wide["upper"] - wide["lower"]
                > tight["upper"] - tight["lower"])
        assert wide["constant"] > tight["constant"]

    def test_floor_validation(self, t3, hp_default):
        for b in (1.5, 0.0, -1.0, float("nan")):
            with pytest.raises(FloorViolated):
                row(t3, 0, [0.5], hp_default, 0.0, b=b)

    def test_subnormal_floor_overflows(self, t3, hp_default):
        # 0 < B <= min ||x||, but sigma / B overflows float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflow, match="interval"):
                bounds_arrays(scan_arrays(t3, [0.5], hp_default), hp_default,
                              b=1e-320)

    def test_matches_reference_calculator(self, rng):
        hp = HyperParams(gamma=0.02, sigma=2.5, alpha=0.05)
        for _ in range(20):
            ds = random_dataset(rng, n=8, d=2)
            norms = np.linalg.norm(ds.X, axis=1)
            b = float(norms.min()) * 0.9
            if b <= 0:
                continue
            w = rng.normal(size=2)
            eps = float(rng.uniform(0.0, 2.0))
            rb = row(ds, 1, w, hp, eps, b=b)
            lo, hi, c = bounds_calc(ds.X.tolist(), ds.y.tolist(), 1, w.tolist(),
                                    hp.gamma, hp.sigma, hp.alpha, eps, b=b)
            assert rb["lower"] == pytest.approx(lo, abs=1e-10)
            assert rb["upper"] == pytest.approx(hi, abs=1e-10)
            assert rb["constant"] == pytest.approx(c, rel=1e-10)


class TestPrivacyFloor:
    def test_zero_error_gives_zero(self):
        assert type(privacy_floor(0.0, 0.05)) is float
        assert privacy_floor(0.0, 0.05) == 0.0
        assert privacy_floor(0.0, 0.01) == 0.0

    def test_frozen_negative_one(self):
        assert privacy_floor(-1.0, 0.05) == pytest.approx(
            PF_NEG1_A005, abs=1e-12)
        # the limit log(2 - alpha), without an overflow warning
        assert privacy_floor(-1e200, 0.01) == pytest.approx(
            math.log(1.99), rel=1e-15)

    def test_positive_error_clamps_to_zero(self):
        assert privacy_floor(1.0, 0.05) == 0.0

    def test_zero_for_all_nonnegative_errors(self):
        for eps in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 1e200):
            assert privacy_floor(eps, 0.05) == 0.0
            assert privacy_floor(eps, 0.2) == 0.0

    def test_nonincreasing(self):
        grid = np.linspace(-5, 5, 101)
        vals = [privacy_floor(float(e), 0.05) for e in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_reference(self, rng):
        for _ in range(50):
            eps = float(rng.uniform(-5, 5))
            alpha = float(rng.uniform(0.01, 0.45))
            assert privacy_floor(eps, alpha) == pytest.approx(
                privacy_floor_calc(eps, alpha), abs=1e-10)

    def test_near_target_matches_high_precision(self):
        # the log of Phi(.) + 1 - alpha rounds 1 + D to float64: at
        # alpha = 0.01 that was 3.5e-6 off (relative) at eps_v = -1e-9, and
        # outside the series' region at alpha = 1e-12 1.0e-4 off at
        # eps_v = -0.14, 1.4e-6 at -0.5 and 1.8e-7 at -1
        mp = pytest.importorskip("mpmath")
        eps_values = np.concatenate([NEAR_EPS, [-0.14, -0.5, -1.0]])
        for alpha in NEAR_ALPHAS:
            exact = [max(float(mp.log1p(g)), 0.0)
                     for g in target_gap_mp(alpha, eps_values)]
            got = [privacy_floor(float(e), alpha) for e in eps_values]
            for e, g, x in zip(eps_values, got, exact):
                assert abs(g - x) <= 1e-13 * x, (alpha, e)

    def test_series_and_difference_agree_at_the_edge(self):
        for alpha in NEAR_ALPHAS:
            z = phi_inv(alpha)
            near, far = (privacy_floor(e, alpha) for e in edge_pair(
                z, lambda e: abs(e) * (abs(z) + abs(e)) <= 1.0, -1.0))
            assert far > 0.0
            assert abs(near - far) <= 1e-13 * far

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            privacy_floor(0.0, 0.5)
        with pytest.raises(DomainError):
            privacy_floor(0.0, 0.0)


def test_width_shrinks_toward_perfect_point(t3, hp_default):
    # on one dataset and point, width grows with eps >= 0
    widths = []
    for eps in (0.0, 0.5, 1.0, 2.0):
        rb = row(t3, 0, [0.5], hp_default, eps)
        widths.append(rb["upper"] - rb["lower"])
    assert all(a < b for a, b in zip(widths, widths[1:]))
