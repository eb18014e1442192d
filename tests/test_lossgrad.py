import numpy as np
import pytest

from delpoint import (
    DataPoint,
    Dataset,
    DimensionMismatch,
    IndexOutOfRange,
    WouldEmptyDataset,
    delete_point,
    deleted_grad,
    point_grad,
    point_loss,
    risk,
    risk_grad,
)

from conftest import random_dataset
from _oracles import mean_grad_loop


def dp(x, y):
    return DataPoint(x=np.asarray(x, dtype=float), y=y)


class TestPointLoss:
    def test_direct_arithmetic(self):
        assert point_loss([0.5], dp([2], 3)) == pytest.approx(4.0)

    def test_exact_fit(self):
        assert point_loss([1.0], dp([1], 1)) == 0.0

    def test_two_dim(self):
        assert point_loss([1.0, 1.0], dp([2, 3], 10)) == pytest.approx(25.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            point_loss([1.0, 2.0], dp([1], 1))


class TestPointGrad:
    def test_hand_value(self):
        assert point_grad([0.5], dp([2], 3)) == pytest.approx([-8.0])

    def test_zero_at_exact_fit(self):
        np.testing.assert_array_equal(point_grad([1.0], dp([1], 1)), [0.0])

    def test_finite_differences(self, rng):
        h = 1e-5
        for _ in range(10):
            d = int(rng.integers(1, 5))
            w = rng.normal(size=d)
            v = dp(rng.normal(size=d), float(rng.normal()))
            g = point_grad(w, v)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (point_loss(w + e, v) - point_loss(w - e, v)) / (2 * h)
                assert g[j] == pytest.approx(fd, abs=1e-6)


class TestRisk:
    def test_t3_hand_sum(self, t3):
        assert risk([0.5], t3) == pytest.approx(37 / 6, rel=1e-14)

    def test_perfect_fit_dataset(self):
        X = np.array([[1.0], [2.0], [4.0]])
        ds = Dataset.from_arrays(X, (X * 1.5).ravel())
        assert risk([1.5], ds) == pytest.approx(0.0, abs=1e-28)

    def test_single_point_equals_point_loss(self):
        ds = Dataset.from_arrays([[2.0]], [3.0])
        assert risk([0.5], ds) == point_loss([0.5], dp([2], 3))

    def test_nonnegative_and_zero_iff_fit(self, rng):
        for _ in range(10):
            ds = random_dataset(rng)
            w = rng.normal(size=ds.dim)
            r = risk(w, ds)
            assert r >= 0.0
            if r == 0.0:
                np.testing.assert_allclose(ds.y, ds.X @ w)


class TestRiskGrad:
    def test_t3_at_zero(self, t3):
        assert risk_grad([0.0], t3) == pytest.approx([-46 / 3], rel=1e-14)

    def test_zero_at_stationary_point(self, rng):
        ds = random_dataset(rng, n=20, d=3)
        w = np.linalg.solve(ds.stats.s_xx, ds.stats.s_yx)
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
    def test_identity_matches_physical_deletion(self, t3):
        w = [0.5]
        via_identity = deleted_grad(w, t3, 2)
        via_recompute = risk_grad(w, delete_point(t3, 2))
        np.testing.assert_allclose(via_identity, via_recompute,
                                   rtol=1e-12, atol=1e-14)

    def test_two_identical_points(self):
        ds = Dataset.from_arrays([[2.0], [2.0]], [3.0, 3.0])
        np.testing.assert_allclose(deleted_grad([0.5], ds, 0),
                                   point_grad([0.5], dp([2], 3)), rtol=1e-14)

    def test_mean_gradient_point_is_neutral(self):
        # symmetric pair: the survivor's gradient equals the mean gradient
        ds = Dataset.from_arrays([[1.0], [-1.0]], [1.0, -1.0])
        np.testing.assert_allclose(deleted_grad([0.0], ds, 0),
                                   risk_grad([0.0], ds), rtol=1e-14)

    def test_identity_on_random_instances(self, rng):
        for _ in range(30):
            ds = random_dataset(rng)
            w = rng.normal(size=ds.dim)
            i = int(rng.integers(ds.n))
            lhs = deleted_grad(w, ds, i)
            rhs = risk_grad(w, delete_point(ds, i))
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_guards(self, t3):
        with pytest.raises(WouldEmptyDataset):
            deleted_grad([0.5], Dataset.from_arrays([[1.0]], [1.0]), 0)
        with pytest.raises(IndexOutOfRange):
            deleted_grad([0.5], t3, 5)
