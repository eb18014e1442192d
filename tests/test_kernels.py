import numpy as np
import pytest

from delpoint import Dataset, HyperParams, NumericOverflow, active_backend
from delpoint._kernels import scan_norms
from delpoint.snr import feature_norms, scan_arrays, snr_denominator


def random_inputs(rng, n, d):
    X = np.ascontiguousarray(rng.normal(size=(n, d)))
    y = rng.normal(size=n)
    w = rng.normal(size=d)
    g = rng.normal(size=d)
    return X, y, w, g


class TestScanKernels:
    def test_numpy_matches_direct_norms(self, rng):
        X, y, w, g = random_inputs(rng, 50, 3)
        numer = scan_norms(X, y, w, g)
        fnorm = feature_norms(X)
        resid = y - X @ w
        for i in range(50):
            assert numer[i] == pytest.approx(
                np.linalg.norm(resid[i] * X[i] - g), rel=1e-12)
            assert fnorm[i] == pytest.approx(np.linalg.norm(X[i]), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_batch_rows_match_single_calls(self, rng, d):
        # each batch row is the one-row call, and that call sums each row
        # in the order of X @ w, bit for bit
        X, y, _, _ = random_inputs(rng, 60, d)
        W, G = rng.normal(size=(7, d)), rng.normal(size=(7, d))
        numer = scan_norms(X, y, W, G)
        assert numer.shape == (7, 60)
        np.testing.assert_array_equal(
            feature_norms(X), np.sqrt(np.einsum("ij,ij->i", X, X)))
        for k in range(7):
            one = scan_norms(X, y, W[k], G[k])
            np.testing.assert_array_equal(numer[k], one)
            diff = (y - X @ W[k])[:, None] * X - G[k]
            np.testing.assert_array_equal(
                one, np.sqrt(np.einsum("ij,ij->i", diff, diff)))

    def test_active_dispatch(self, rng):
        # scan_arrays scores are exactly the kernel's output at
        # g = s_yx - s_xx w, over the SNR denominator
        X, y, w, _ = random_inputs(rng, 10, 2)
        ds = Dataset.from_arrays(X, y)
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        numer = scan_norms(X, y, w, ds.s_yx - ds.s_xx @ w)
        a = scan_arrays(ds, w, hp)
        np.testing.assert_array_equal(a["d_v"],
                                      numer / snr_denominator(ds.n, hp))
        np.testing.assert_array_equal(a["feature_norm"], feature_norms(X))

    def test_feature_norms_of_tiny_rows(self):
        # squaring these rows underflows; rescaling by the largest |x_ij|
        # does not, and rows above sqrt(tiny) keep the plain formula
        X = np.array([[1e-200, 3e-200], [0.0, 0.0], [1e-160, 0.0],
                      [5e-324, 0.0], [3.0, 4.0]])
        assert feature_norms(X).tolist() == [
            np.sqrt(10.0) * 1e-200, 0.0, 1e-160, 5e-324, 5.0]
        assert feature_norms(np.array([[1e-200]])).tolist() == [1e-200]

    def test_feature_norms_overflow(self):
        with pytest.raises(NumericOverflow, match="overflow"):
            feature_norms(np.array([[1.0, 2.0], [1e200, 1e200]]))

    def test_backend_name_reported(self):
        assert active_backend() == "numpy"
