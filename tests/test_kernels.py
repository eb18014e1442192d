import numpy as np
import pytest

from delpoint import Dataset, HyperParams, active_backend
from delpoint._kernels import scan_norms
from delpoint.snr import scan_arrays, snr_denominator


def random_inputs(rng, n, d):
    X = np.ascontiguousarray(rng.normal(size=(n, d)))
    y = rng.normal(size=n)
    w = rng.normal(size=d)
    g = rng.normal(size=d)
    return X, y, w, g


class TestScanKernels:
    def test_numpy_matches_direct_norms(self, rng):
        X, y, w, g = random_inputs(rng, 50, 3)
        numer, fnorm = scan_norms(X, y, w, g)
        resid = y - X @ w
        for i in range(50):
            assert numer[i] == pytest.approx(
                np.linalg.norm(resid[i] * X[i] - g), rel=1e-12)
            assert fnorm[i] == pytest.approx(np.linalg.norm(X[i]), rel=1e-12)

    def test_active_dispatch(self, rng):
        # scan_arrays scores are exactly the kernel's output at
        # g = s_yx - s_xx w, over the SNR denominator
        X, y, w, _ = random_inputs(rng, 10, 2)
        ds = Dataset.from_arrays(X, y)
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        numer, fnorm = scan_norms(X, y, w, ds.stats.s_yx - ds.stats.s_xx @ w)
        a = scan_arrays(ds, w, hp)
        np.testing.assert_array_equal(a["d_v"],
                                      numer / snr_denominator(ds.n, hp))
        np.testing.assert_array_equal(a["feature_norm"], fnorm)

    def test_backend_name_reported(self):
        assert active_backend() == "numpy"
