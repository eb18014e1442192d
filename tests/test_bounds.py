import math
import warnings

import numpy as np
import pytest

from delpoint import (
    Dataset,
    DelpointError,
    HyperParams,
    NumericOverflow,
    advantage_target,
    privacy_floor,
)
from delpoint.bounds import bounds_arrays
from delpoint.gauss import phi_inv
from delpoint.snr import scan_arrays, snr_denominator

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


def row(ds, index, w, hp, b=None):
    """Row ``index`` of bounds_arrays on the scan of ds at w under hp."""
    cols = bounds_arrays(scan_arrays(ds, w, hp), hp.alpha, b=b)
    return {key: col.tolist()[index] for key, col in cols.items()}


class TestRiskChangeBounds:
    def test_t3_golden(self, t3, hp_default):
        eps = t3_eps(t3, hp_default)
        assert eps == pytest.approx(T3_EPS, rel=1e-12)
        rb = row(t3, 0, [0.5], hp_default)
        assert rb["lower"] == pytest.approx(T3_LOWER, abs=1e-12)
        assert rb["upper"] == pytest.approx(T3_UPPER, abs=1e-12)
        # the half-width is the printed t C, t = eps_v + target
        t = eps + advantage_target(hp_default.alpha)
        assert (rb["upper"] - rb["lower"]) / 2.0 == pytest.approx(
            t * T3_C, rel=1e-12)
        assert rb["actual_delta"] == pytest.approx(T3_ACTUAL, rel=1e-12)
        # d = 1: the upper end is the absolute-residual change itself, so
        # contained_b there reads rounding (TestContainment)
        assert rb["upper"] == pytest.approx(T3_ABS_RESIDUAL, rel=1e-12)
        assert rb["contained_a"] is True

    def test_width_identity(self, rng):
        # under paper, the width is the printed 2 t C with the scan's eps_v
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        target = advantage_target(hp.alpha)
        for _ in range(20):
            ds = random_dataset(rng, n=10, d=2)
            w = rng.normal(size=2)
            eps = scan_arrays(ds, w, hp)["eps_v"][3]
            rb = row(ds, 3, w, hp)
            c = (hp.sigma / float(np.linalg.norm(ds.X[3]))
                 * math.sqrt(hp.gamma / (2.0 * (ds.n - 1))))
            width = 2.0 * (eps + target) * c
            assert rb["upper"] - rb["lower"] == pytest.approx(
                width, rel=1e-10, abs=1e-12)

    def test_lower_bound_drops_with_feature_norm(self, t3, hp_default):
        # same dataset and scan, a shrinking norm floor in place of ||x_v||
        vals = [row(t3, 0, [0.5], hp_default, b=b)["lower"]
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
            eps = scan_arrays(ds, w, hp)["eps_v"][i]
            rb = row(ds, i, w, hp)
            lo, hi = bounds_calc(ds.X.tolist(), ds.y.tolist(), i,
                                    w.tolist(), hp.gamma, hp.sigma, hp.alpha,
                                    eps)
            assert rb["lower"] == pytest.approx(lo, abs=1e-10)
            assert rb["upper"] == pytest.approx(hi, abs=1e-10)

    def test_nonneg_assumption_flagged(self, t3, hp_default):
        # point 2 of T3 has above-average loss at w=0.5, so the
        # risk change from deleting it is negative, and outside the
        # interval, which is derived for the absolute residual
        rb = row(t3, 2, [0.5], hp_default)
        assert rb["actual_delta"] < 0.0
        assert rb["contained_a"] is False

    def test_zero_feature_rejected(self, hp_default):
        ds = Dataset.from_arrays([[1.0], [0.0], [2.0]], [1.0, 2.0, 3.0])
        with pytest.raises(DelpointError,
                           match="point id 1 has a zero feature vector"):
            row(ds, 1, [0.5], hp_default)
        # the whole-dataset call rejects before any row, naming the point
        # by its position
        with pytest.raises(DelpointError,
                           match="point id 1 has a zero feature vector"):
            bounds_arrays(scan_arrays(ds, [0.5], hp_default),
                          hp_default.alpha)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_scan_arithmetic(self, rng, d):
        # the interval divides the scan's numerators, whose quotient by
        # the denominator is d_v bit for bit, by the feature_norm that
        # selection ranks by; the residuals are the scan kernel's, bit for
        # bit: p = x_0 w_0; p += x_j w_j; r = y - p.  Magnitudes spread
        # over 1e-3 .. 1e3, so a sum in another order rounds differently.
        n = 1000
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, d))
        ds = Dataset.from_arrays(X, rng.normal(size=n))
        w = rng.normal(size=d)
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        scan = scan_arrays(ds, w, hp)
        cols = bounds_arrays(scan, hp.alpha)
        np.testing.assert_array_equal(
            scan["numerator"] / snr_denominator(n, hp), scan["d_v"])
        p = ds.X[:, 0] * w[0]
        for j in range(1, d):
            p += ds.X[:, j] * w[j]
        r = ds.y - p
        np.testing.assert_array_equal(cols["actual_delta"],
                                      (np.mean(r * r) - r * r) / (n - 1))
        den = (n - 1) * scan["feature_norm"]
        base = np.mean(r * r) / (n - 1) - np.linalg.norm(scan["g"]) / den
        np.testing.assert_array_equal(cols["lower"],
                                      base - scan["numerator"] / den)

    def test_singleton_rejected(self, hp_default):
        ds = Dataset.from_arrays([[1.0]], [1.0])
        with pytest.raises(DelpointError,
                           match="signal-to-noise ratio needs n >= 2"):
            row(ds, 0, [0.5], hp_default)


class TestContainment:
    """The per-point interval holds the absolute-residual change: the
    triangle inequality G - N_v <= |r_v| ||x_v|| <= G + N_v, with
    N_v = ||r_v x_v - g|| the scan's numerator and G = ||g||, divided by
    (n-1) ||x_v||.  Nothing in it depends on the SNR convention."""

    # At d = 1 one side is an equality, so a flag there reads rounding.
    # From the floats r_v, x_v, g and L0 that both sides share, an end is
    # L0 / (n-1) - G / den -+ N_v / den, with den = (n-1) ||x_v||,
    # N_v = sqrt((r_v x_v - g)^2), G = sqrt(g^2) and ||x_v|| =
    # sqrt(x_v^2): 4 + 2 + 2 + 1 rounded operations, and 5 for the three
    # quotients and two differences.  The change (L0 - |r_v|) / (n-1)
    # adds 2.  Each of these 16 is off by at most u times a term no larger
    # than M = (L0 + |r_v| + (G + N_v) / ||x_v||) / (n-1), so a miss is
    # at most 16 u M to first order; 18 u M leaves room for the
    # second-order terms.
    ALLOWANCE = 18 * np.finfo(np.float64).eps / 2

    @pytest.mark.parametrize("convention", ["paper", "consistent"])
    def test_absolute_residual_change_is_contained(self, convention):
        rng = np.random.default_rng(4242)
        worst = 0.0
        for _ in range(400):
            n, d = int(rng.integers(3, 301)), int(rng.integers(1, 7))
            ds = Dataset.from_arrays(rng.normal(size=(n, d)),
                                     rng.normal(size=n) * 3.0)
            w = rng.normal(size=d)
            hp = HyperParams(gamma=float(rng.uniform(0.001, 0.5)),
                             sigma=float(rng.uniform(0.5, 4.0)),
                             alpha=float(rng.uniform(0.01, 0.4)),
                             snr_convention=convention)
            scan = scan_arrays(ds, w, hp)
            cols = bounds_arrays(scan, hp.alpha)
            r = scan["residual"]
            l0 = float(np.mean(r * r))
            change = (l0 - np.abs(r)) / (n - 1)
            lo, hi = cols["lower"], cols["upper"]
            np.testing.assert_array_equal(
                cols["contained_b"], (lo <= change) & (change <= hi))
            if d >= 2:
                assert cols["contained_b"].all(), (n, d)
                continue
            g, x = float(np.linalg.norm(scan["g"])), scan["feature_norm"]
            mag = (l0 + np.abs(r) + (g + scan["numerator"]) / x) / (n - 1)
            miss = np.maximum(lo - change, change - hi) / mag
            worst = max(worst, float(miss.max()))
        assert worst <= self.ALLOWANCE


class TestFloorVariant:
    def test_reduces_to_per_point_at_own_norm(self, t3, hp_default):
        per_point = row(t3, 0, [0.5], hp_default)
        floored = row(t3, 0, [0.5], hp_default,
                      b=1.0)  # ||x_0|| = 1 = min norm
        for key in ("lower", "upper"):
            assert floored[key] == pytest.approx(per_point[key], rel=1e-12)

    def test_smaller_floor_widens(self, t3, hp_default):
        wide = row(t3, 0, [0.5], hp_default, b=0.5)
        tight = row(t3, 0, [0.5], hp_default, b=1.0)
        assert (wide["upper"] - wide["lower"]
                > tight["upper"] - tight["lower"])

    def test_floor_validation(self, t3, hp_default):
        for b, problem in ((1.5, "B = 1.5 exceeds the smallest feature norm"),
                           (0.0, "B must be positive"),
                           (-1.0, "B must be positive"),
                           (float("nan"), "B must be positive")):
            with pytest.raises(DelpointError, match=problem):
                row(t3, 0, [0.5], hp_default, b=b)

    def test_subnormal_floor_overflows(self, t3, hp_default):
        # 0 < B <= min ||x||, but G / ((n-1) B) overflows float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflow, match="interval"):
                bounds_arrays(scan_arrays(t3, [0.5], hp_default),
                              hp_default.alpha, b=1e-320)

    def test_matches_reference_calculator(self, rng):
        hp = HyperParams(gamma=0.02, sigma=2.5, alpha=0.05)
        for _ in range(20):
            ds = random_dataset(rng, n=8, d=2)
            norms = np.linalg.norm(ds.X, axis=1)
            b = float(norms.min()) * 0.9
            if b <= 0:
                continue
            w = rng.normal(size=2)
            eps = scan_arrays(ds, w, hp)["eps_v"][1]
            rb = row(ds, 1, w, hp, b=b)
            lo, hi = bounds_calc(ds.X.tolist(), ds.y.tolist(), 1,
                                    w.tolist(), hp.gamma, hp.sigma, hp.alpha,
                                    eps, b=b)
            assert rb["lower"] == pytest.approx(lo, abs=1e-10)
            assert rb["upper"] == pytest.approx(hi, abs=1e-10)


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
        with pytest.raises(DelpointError,
                           match=r"alpha must lie in \(0, 0\.5\)"):
            privacy_floor(0.0, 0.5)
        with pytest.raises(DelpointError,
                           match=r"alpha must lie in \(0, 0\.5\)"):
            privacy_floor(0.0, 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_error_rejected(self, eps):
        # named as eps_v, as membership_advantage names a separation, not
        # as the phi call it would reach; one bad entry rejects an array
        for arg in (eps, np.array([0.0, -1.0, eps])):
            with pytest.raises(DelpointError, match="eps_v must be finite"):
                privacy_floor(arg, 0.05)


def test_width_shrinks_toward_perfect_point(rng, hp_default):
    # at one feature norm the width 2 N_v / ((n-1) ||x_v||) grows with
    # d_v, so on one dataset it grows with the scan's own eps_v
    angle = rng.uniform(0.0, 2.0 * np.pi, 20)
    ds = Dataset.from_arrays(np.column_stack([np.cos(angle), np.sin(angle)]),
                             rng.normal(size=20))
    scan = scan_arrays(ds, [0.5, -0.3], hp_default)
    cols = bounds_arrays(scan, hp_default.alpha)
    order = np.argsort(scan["eps_v"])
    widths = (cols["upper"] - cols["lower"])[order]
    assert np.all(np.diff(widths) > 0.0)
