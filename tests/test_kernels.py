import numpy as np
import pytest

from delpoint import Dataset, HyperParams, NumericOverflow, active_backend
from delpoint._kernels import scan_norms
from delpoint.snr import feature_norms, scan_arrays, snr_denominator

from _oracles import residual_loop, row_norms_loop, scan_norms_loop


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
        # each batch row is the one-row call, and that call is the scalar
        # loop in the kernel's stated column order, bit for bit
        X, y, _, _ = random_inputs(rng, 60, d)
        W, G = rng.normal(size=(7, d)), rng.normal(size=(7, d))
        numer = scan_norms(X, y, W, G)
        assert numer.shape == (7, 60)
        assert feature_norms(X).tolist() == row_norms_loop(X)
        for k in range(7):
            one = scan_norms(X, y, W[k], G[k])
            np.testing.assert_array_equal(numer[k], one)
            assert one.tolist() == scan_norms_loop(X, y, W[k], G[k])

    @pytest.mark.parametrize("batch", [None, 5])
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_stated_column_order(self, rng, d, batch):
        # magnitudes spread over 1e-3 .. 1e3, so a sum in another order
        # rounds differently; C and Fortran layouts read the same columns,
        # and the second work array is left holding the residuals
        X, y, _, _ = random_inputs(rng, 200, d)
        X *= 10.0 ** rng.uniform(-3, 3, size=(200, d))
        shape = (d,) if batch is None else (batch, d)
        W, G = rng.normal(size=shape), 1e3 * rng.normal(size=shape)
        work = [np.empty(shape[:-1] + (200,)) for _ in range(3)]
        numer = scan_norms(X, y, W, G, work)
        assert numer is work[0]
        np.testing.assert_array_equal(
            scan_norms(np.asfortranarray(X), y, W, G), numer)
        rows = [(numer, work[1])] if batch is None else zip(numer, work[1])
        pairs = [(W, G)] if batch is None else zip(W, G)
        for (got, resid), (w, g) in zip(rows, pairs):
            assert got.tolist() == scan_norms_loop(X, y, w, g)
            assert resid.tolist() == residual_loop(X, y, w)
        assert feature_norms(X).tolist() == row_norms_loop(X)

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
        assert a["residual"].tolist() == residual_loop(X, y, w)

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
