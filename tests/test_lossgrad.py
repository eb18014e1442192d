"""The empirical risk and its gradient.

The risk L0 = L(w; D0) is the mean of the squared scan residuals that
bounds.bounds_arrays subtracts from; it is read back here from its
actual_delta column.  A one-row dataset's risk is its point's loss, the
oracle risk_loop.  The gradient is the oracle risk_grad from the
sufficient statistics, and the leave-one-out gradient is risk_grad on the
moments that the oracle delete_point downdates.
"""

import warnings

import numpy as np
import pytest

from delpoint import (
    Dataset,
    DelpointError,
    HyperParams,
    NumericOverflow,
)
from delpoint.bounds import bounds_arrays
from delpoint.snr import scan_arrays

from conftest import random_dataset
from _oracles import (IndexOutOfRange, delete_point, mean_grad_loop,
                      point_grad_loop, risk_grad, risk_loop)

HP = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)


def one(x, y):
    """One-row dataset: risk_grad on it is the point's gradient."""
    return Dataset.from_arrays([np.asarray(x, dtype=float)], [y])


def loss(w, x, y):
    """The loss of one point (x, y), risk_loop on one row."""
    return risk_loop(w, [x], [y])


def risk(w, ds):
    """L0 of a dataset of n >= 2 points: bounds_arrays' actual_delta is
    (L0 - r_v^2) / (n - 1), with r_v the scan's residual."""
    scan = scan_arrays(ds, w, HP)
    r = scan["residual"]
    delta = bounds_arrays(scan, HP.alpha)["actual_delta"]
    return float(np.mean(delta * (ds.n - 1) + r * r))


class TestPointLoss:
    def test_direct_arithmetic(self):
        assert loss([0.5], [2], 3) == pytest.approx(4.0)

    def test_exact_fit(self):
        assert loss([1.0], [1], 1) == 0.0

    def test_two_dim(self):
        assert loss([1.0, 1.0], [2, 3], 10) == pytest.approx(25.0)

    def test_dimension_mismatch(self):
        ds = Dataset.from_arrays([[1.0], [2.0]], [1.0, 2.0])
        # a weight vector of the wrong length, and a 2-D one
        for w, problem in (([1.0, 2.0], "weights have dim 2, data has 1"),
                           ([[1.0]], "weights must be a vector")):
            with pytest.raises(DelpointError, match=problem):
                scan_arrays(ds, w, HP)


class TestPointGrad:
    def test_hand_value(self):
        assert risk_grad([0.5], one([2], 3)) == pytest.approx([-8.0])

    def test_zero_at_exact_fit(self):
        np.testing.assert_array_equal(risk_grad([1.0], one([1], 1)), [0.0])

    def test_finite_differences(self, rng):
        h = 1e-5
        for _ in range(10):
            d = int(rng.integers(1, 5))
            w = rng.normal(size=d)
            x, y = rng.normal(size=d), float(rng.normal())
            g = risk_grad(w, one(x, y))
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (loss(w + e, x, y) - loss(w - e, x, y)) / (2 * h)
                assert g[j] == pytest.approx(fd, abs=1e-6)


class TestRisk:
    def test_t3_hand_sum(self, t3):
        assert risk([0.5], t3) == pytest.approx(37 / 6, rel=1e-14)

    def test_perfect_fit_dataset(self):
        X = np.array([[1.0], [2.0], [4.0]])
        ds = Dataset.from_arrays(X, (X * 1.5).ravel())
        assert risk([1.5], ds) == pytest.approx(0.0, abs=1e-28)

    def test_single_point_equals_point_loss(self):
        # the mean of the points' losses; one row has no bounds to read
        ds = Dataset.from_arrays([[2.0], [1.0]], [3.0, 4.0])
        assert risk([0.5], ds) == pytest.approx(
            (loss([0.5], [2.0], 3.0) + loss([0.5], [1.0], 4.0)) / 2,
            rel=1e-15)
        with pytest.raises(DelpointError,
                           match="signal-to-noise ratio needs n >= 2"):
            risk([0.5], one([2.0], 3.0))

    def test_nonnegative_and_zero_iff_fit(self, rng):
        for _ in range(10):
            ds = random_dataset(rng)
            w = rng.normal(size=ds.dim)
            r = risk(w, ds)
            assert r >= 0.0
            if r == 0.0:
                np.testing.assert_allclose(ds.y, ds.X @ w)

    def test_overflow_raises_without_warning(self):
        # finite moments, but each squared residual (1e155)^2 overflows
        ds = Dataset.from_arrays([[1e-10], [2e-10], [3e-10]],
                                 [1e155, 1e155, 3e155])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = scan_arrays(ds, [0.0], HP)
            with pytest.raises(NumericOverflow, match="empirical risk"):
                bounds_arrays(scan, HP.alpha)


class TestRiskGrad:
    def test_t3_at_zero(self, t3):
        assert risk_grad([0.0], t3) == pytest.approx([-46 / 3], rel=1e-14)

    def test_zero_at_stationary_point(self, rng):
        ds = random_dataset(rng, n=20, d=3)
        w = np.linalg.solve(ds.s_xx, ds.s_yx)
        np.testing.assert_allclose(risk_grad(w, ds), np.zeros(3), atol=1e-12)

    def test_stats_path_matches_loop(self, rng):
        for _ in range(20):
            ds = random_dataset(rng)
            w = rng.normal(size=ds.dim)
            loop = mean_grad_loop(w, ds.X.tolist(), ds.y.tolist())
            np.testing.assert_allclose(risk_grad(w, ds), loop,
                                       rtol=1e-10, atol=1e-12)

    def test_matches_finite_differences_of_risk(self, rng):
        h = 1e-5
        ds = random_dataset(rng, n=15, d=3)
        w = rng.normal(size=3)
        g = risk_grad(w, ds)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (risk(w + e, ds) - risk(w - e, ds)) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-6)


class TestDeletedGrad:
    """The leave-one-out gradient as simulate computes it: risk_grad on the
    downdated moments of the oracle delete_point, against the deleted
    rows."""

    def test_identity_matches_physical_deletion(self, t3):
        w = [0.5]
        via_identity = risk_grad(w, delete_point(t3, 2))
        via_recompute = mean_grad_loop(w, t3.X[:2].tolist(), t3.y[:2].tolist())
        np.testing.assert_allclose(via_identity, via_recompute,
                                   rtol=1e-12, atol=1e-14)

    def test_two_identical_points(self):
        ds = Dataset.from_arrays([[2.0], [2.0]], [3.0, 3.0])
        np.testing.assert_allclose(risk_grad([0.5], delete_point(ds, 0)),
                                   point_grad_loop([0.5], [2.0], 3.0),
                                   rtol=1e-14)

    def test_mean_gradient_point_is_neutral(self):
        # symmetric pair: the survivor's gradient equals the mean gradient
        ds = Dataset.from_arrays([[1.0], [-1.0]], [1.0, -1.0])
        np.testing.assert_allclose(risk_grad([0.0], delete_point(ds, 0)),
                                   risk_grad([0.0], ds), rtol=1e-14)

    def test_identity_on_random_instances(self, rng):
        for _ in range(30):
            ds = random_dataset(rng)
            w = rng.normal(size=ds.dim)
            i = int(rng.integers(ds.n))
            lhs = risk_grad(w, delete_point(ds, i))
            rhs = mean_grad_loop(w, np.delete(ds.X, i, axis=0).tolist(),
                                 np.delete(ds.y, i).tolist())
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_guards(self, t3):
        with pytest.raises(DelpointError,
                           match="cannot delete the only remaining point"):
            delete_point(Dataset.from_arrays([[1.0]], [1.0]), 0)
        with pytest.raises(IndexOutOfRange):
            delete_point(t3, 5)
