import numpy as np
import pytest
from scipy.stats import chi2

from delpoint import DelpointError, GenConfig, NumericOverflow, generate


class TestGenerate:
    def test_zero_noise_scale_gives_exact_line(self):
        ds = generate(GenConfig(noise_scale=0.0, seed=7))
        np.testing.assert_allclose(ds.y, 3.1415926535 * ds.X[:, 0], rtol=1e-12)

    def test_defaults_match_recipe(self):
        ds = generate(GenConfig())
        assert ds.n == 200
        assert ds.dim == 1
        assert ds.X.min() >= 0.0 and ds.X.max() <= 10.0

    def test_least_squares_slope_near_truth(self):
        cfg = GenConfig()
        ds = generate(cfg)
        x = ds.X[:, 0]
        slope_hat = float(x @ ds.y) / float(x @ x)
        # 3 standard errors of the no-intercept estimator
        se = cfg.noise_scale * cfg.noise_std / np.sqrt(float(x @ x))
        assert abs(slope_hat - cfg.slope) <= 3 * se
        assert abs(slope_hat - cfg.slope) <= 1.47

    def test_same_seed_identical(self):
        a = generate(GenConfig(seed=123))
        b = generate(GenConfig(seed=123))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a = generate(GenConfig(seed=1))
        b = generate(GenConfig(seed=2))
        assert not np.array_equal(a.y, b.y)

    def test_label_noise_sd_consistent(self):
        cfg = GenConfig(seed=99)
        ds = generate(cfg)
        resid = ds.y - cfg.slope * ds.X[:, 0]
        s2 = resid.var(ddof=1)
        sigma2 = (cfg.noise_scale * cfg.noise_std) ** 2
        k = cfg.n - 1
        assert sigma2 * chi2.ppf(0.005, k) / k <= s2 <= \
            sigma2 * chi2.ppf(0.995, k) / k

    def test_extra_features_are_inert(self):
        base = generate(GenConfig(seed=5))
        wide = generate(GenConfig(seed=5, extra_features=2))
        assert wide.dim == 3
        np.testing.assert_array_equal(wide.X[:, 0], base.X[:, 0])
        assert wide.X[:, 1:].min() >= 0.0 and wide.X[:, 1:].max() <= 10.0

    def test_validation(self):
        with pytest.raises(DelpointError, match="^n must be >= 1, got 0"):
            GenConfig(n=0)
        with pytest.raises(DelpointError, match="need x_low < x_high"):
            GenConfig(x_low=5.0, x_high=5.0)
        with pytest.raises(DelpointError, match="noise_std must be >= 0"):
            GenConfig(noise_std=-1.0)
        with pytest.raises(DelpointError, match="noise_scale must be >= 0"):
            GenConfig(noise_scale=-0.5)
        for name in ("x_low", "x_high", "slope", "noise_std", "noise_scale"):
            for value in (float("inf"), float("-inf"), float("nan")):
                with pytest.raises(DelpointError,
                                   match=f"{name} must be finite"):
                    GenConfig(**{name: value})
        # finite bounds whose difference overflows float64
        with pytest.raises(DelpointError, match=r"x_high - x_low must be "
                           r"finite, got \[-1e\+308, 1e\+308\]"):
            GenConfig(x_low=-1e308, x_high=1e308)

    def test_label_overflow_raises(self):
        for cfg in (GenConfig(n=10, x_high=1e308),
                    GenConfig(n=10, slope=1e308),
                    GenConfig(n=10, noise_std=1e200, noise_scale=1e200)):
            with pytest.raises(NumericOverflow, match="labels"):
                generate(cfg)
