import numpy as np
import pytest

from delpoint import (
    Dataset,
    DomainError,
    FloorViolated,
    HyperParams,
    IndexOutOfRange,
    WouldEmptyDataset,
    ZeroFeatureNorm,
    advantage_target,
    membership_error,
    privacy_floor,
    risk_change_bounds,
    risk_change_bounds_floor,
    snr_closed_form,
)
from delpoint.bounds import bounds_arrays, interval_endpoints

from conftest import random_dataset
from _oracles import bounds_calc, privacy_floor_calc

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
    s = snr_closed_form(t3, 0, [0.5], hp)
    return membership_error(s, hp.alpha)


class TestRiskChangeBounds:
    def test_t3_golden(self, t3, hp_default):
        eps = t3_eps(t3, hp_default)
        assert eps == pytest.approx(T3_EPS, rel=1e-12)
        rb = risk_change_bounds(t3, 0, [0.5], hp_default, eps)
        assert rb.lower == pytest.approx(T3_LOWER, abs=1e-12)
        assert rb.upper == pytest.approx(T3_UPPER, abs=1e-12)
        assert rb.constant == pytest.approx(T3_C, rel=1e-12)
        assert rb.actual_delta == pytest.approx(T3_ACTUAL, rel=1e-12)
        assert rb.abs_residual_delta == pytest.approx(T3_ABS_RESIDUAL, rel=1e-12)
        assert rb.variant == "per_point"
        assert rb.b_floor is None
        assert rb.contained_a is True
        assert rb.change_nonnegative is True

    def test_width_identity(self, rng):
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        target = advantage_target(hp.alpha)
        for _ in range(20):
            ds = random_dataset(rng, n=10, d=2)
            w = rng.normal(size=2)
            eps = float(rng.uniform(-target, 5.0))
            rb = risk_change_bounds(ds, 3, w, hp, eps)
            width = 2.0 * (eps + target) * rb.constant
            assert rb.upper - rb.lower == pytest.approx(width, rel=1e-10,
                                                        abs=1e-12)

    def test_lower_bound_drops_with_feature_norm(self):
        # same arguments, shrinking ||x_v||
        vals = [interval_endpoints(2.0, 5.0, 2.0, 0.01, 10, s, 1.3)[0]
                for s in (4.0, 2.0, 1.0, 0.5, 0.25)]
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
            rb = risk_change_bounds(ds, i, w, hp, eps)
            lo, hi, c = bounds_calc(ds.X.tolist(), ds.y.tolist(), i, w.tolist(),
                                    hp.gamma, hp.sigma, hp.alpha, eps)
            assert rb.lower == pytest.approx(lo, abs=1e-10)
            assert rb.upper == pytest.approx(hi, abs=1e-10)
            assert rb.constant == pytest.approx(c, rel=1e-10)

    def test_nonneg_assumption_flagged(self, t3, hp_default):
        # point 2 of T3 has above-average loss at w=0.5, so the
        # risk change from deleting it is negative
        eps = membership_error(snr_closed_form(t3, 2, [0.5], hp_default),
                               hp_default.alpha)
        rb = risk_change_bounds(t3, 2, [0.5], hp_default, eps)
        assert rb.actual_delta < 0.0
        assert rb.change_nonnegative is False

    def test_zero_feature_rejected(self, hp_default):
        ds = Dataset.from_arrays([[1.0], [0.0], [2.0]], [1.0, 2.0, 3.0],
                                 ids=[3, 7, 9])
        with pytest.raises(ZeroFeatureNorm):
            risk_change_bounds(ds, 1, [0.5], hp_default, 0.0)
        # the whole-dataset call rejects before any row, naming the point id
        with pytest.raises(ZeroFeatureNorm, match="point id 7 "):
            bounds_arrays(ds, [0.5], hp_default, np.zeros(3))
        # other points of the same dataset still have a per-point interval
        rb = risk_change_bounds(ds, 2, [0.5], hp_default, 0.0)
        assert rb.lower <= rb.upper

    def test_index_out_of_range(self, t3, hp_default):
        for index in (3, -1):
            with pytest.raises(IndexOutOfRange):
                risk_change_bounds(t3, index, [0.5], hp_default, 0.0)

    def test_singleton_rejected(self, hp_default):
        ds = Dataset.from_arrays([[1.0]], [1.0])
        with pytest.raises(WouldEmptyDataset):
            risk_change_bounds(ds, 0, [0.5], hp_default, 0.0)

    def test_negative_implied_d_v_rejected(self, t3, hp_default):
        target = advantage_target(hp_default.alpha)
        with pytest.raises(DomainError):
            risk_change_bounds(t3, 0, [0.5], hp_default, -target - 1.0)


class TestFloorVariant:
    def test_reduces_to_per_point_at_own_norm(self, t3, hp_default):
        eps = t3_eps(t3, hp_default)
        per_point = risk_change_bounds(t3, 0, [0.5], hp_default, eps)
        floored = risk_change_bounds_floor(t3, 0, [0.5], hp_default, eps,
                                           b=1.0)  # ||x_0|| = 1 = min norm
        assert floored.lower == pytest.approx(per_point.lower, rel=1e-12)
        assert floored.upper == pytest.approx(per_point.upper, rel=1e-12)
        assert floored.constant == pytest.approx(per_point.constant, rel=1e-12)
        assert floored.variant == "norm_floor"
        assert floored.b_floor == 1.0

    def test_smaller_floor_widens(self, t3, hp_default):
        eps = t3_eps(t3, hp_default)
        wide = risk_change_bounds_floor(t3, 0, [0.5], hp_default, eps, b=0.5)
        tight = risk_change_bounds_floor(t3, 0, [0.5], hp_default, eps, b=1.0)
        assert wide.upper - wide.lower > tight.upper - tight.lower
        assert wide.constant > tight.constant

    def test_floor_validation(self, t3, hp_default):
        with pytest.raises(FloorViolated):
            risk_change_bounds_floor(t3, 0, [0.5], hp_default, 0.0, b=1.5)
        with pytest.raises(FloorViolated):
            risk_change_bounds_floor(t3, 0, [0.5], hp_default, 0.0, b=0.0)
        with pytest.raises(FloorViolated):
            risk_change_bounds_floor(t3, 0, [0.5], hp_default, 0.0, b=-1.0)
        with pytest.raises(FloorViolated):
            risk_change_bounds_floor(t3, 0, [0.5], hp_default, 0.0,
                                     b=float("nan"))

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
            rb = risk_change_bounds_floor(ds, 1, w, hp, eps, b=b)
            lo, hi, c = bounds_calc(ds.X.tolist(), ds.y.tolist(), 1, w.tolist(),
                                    hp.gamma, hp.sigma, hp.alpha, eps, b=b)
            assert rb.lower == pytest.approx(lo, abs=1e-10)
            assert rb.upper == pytest.approx(hi, abs=1e-10)
            assert rb.constant == pytest.approx(c, rel=1e-10)


class TestPrivacyFloor:
    def test_zero_error_gives_zero(self):
        assert privacy_floor(0.0, 0.05).eps_lower == 0.0
        assert privacy_floor(0.0, 0.01).eps_lower == 0.0

    def test_frozen_negative_one(self):
        assert privacy_floor(-1.0, 0.05).eps_lower == pytest.approx(
            PF_NEG1_A005, abs=1e-12)

    def test_positive_error_clamps_to_zero(self):
        assert privacy_floor(1.0, 0.05).eps_lower == 0.0

    def test_zero_for_all_nonnegative_errors(self):
        for eps in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0):
            assert privacy_floor(eps, 0.05).eps_lower == 0.0
            assert privacy_floor(eps, 0.2).eps_lower == 0.0

    def test_nonincreasing(self):
        grid = np.linspace(-5, 5, 101)
        vals = [privacy_floor(float(e), 0.05).eps_lower for e in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_reference(self, rng):
        for _ in range(50):
            eps = float(rng.uniform(-5, 5))
            alpha = float(rng.uniform(0.01, 0.45))
            assert privacy_floor(eps, alpha).eps_lower == pytest.approx(
                privacy_floor_calc(eps, alpha), abs=1e-10)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            privacy_floor(0.0, 0.5)
        with pytest.raises(DomainError):
            privacy_floor(0.0, 0.0)


def test_width_shrinks_toward_perfect_point():
    # at fixed remaining arguments, width grows with eps >= 0
    widths = []
    for eps in (0.0, 0.5, 1.0, 2.0):
        lo, hi, _ = interval_endpoints(2.0, eps + 4.0, 2.0, 0.01, 10, 1.5, 1.0)
        widths.append(hi - lo)
    assert all(a < b for a, b in zip(widths, widths[1:]))
