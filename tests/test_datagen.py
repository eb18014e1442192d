import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from delpoint import DelpointError, datagen, generate

RECIPE = ("X_HIGH", "SLOPE", "NOISE")


class TestGenerate:
    def test_defaults_match_recipe(self):
        ds = generate()
        assert ds.n == 200
        assert ds.dim == 1
        assert ds.X.min() >= 0.0 and ds.X.max() <= 10.0

    def test_least_squares_slope_near_truth(self):
        ds = generate()
        x = ds.X[:, 0]
        slope_hat = float(x @ ds.y) / float(x @ x)
        # 3 standard errors of the no-intercept estimator
        se = datagen.NOISE / np.sqrt(float(x @ x))
        assert abs(slope_hat - datagen.SLOPE) <= 3 * se
        assert abs(slope_hat - datagen.SLOPE) <= 1.47

    def test_same_seed_identical(self):
        a = generate(seed=123)
        b = generate(seed=123)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a = generate(seed=1)
        b = generate(seed=2)
        assert not np.array_equal(a.y, b.y)

    def test_label_noise_sd_consistent(self):
        ds = generate(seed=99)
        resid = ds.y - datagen.SLOPE * ds.X[:, 0]
        s2 = resid.var(ddof=1)
        sigma2 = datagen.NOISE ** 2
        k = ds.n - 1
        assert sigma2 * chi2.ppf(0.005, k) / k <= s2 <= \
            sigma2 * chi2.ppf(0.995, k) / k

    def test_extra_features_are_inert(self):
        base = generate(seed=5)
        wide = generate(seed=5, extra_features=2)
        assert wide.dim == 3
        np.testing.assert_array_equal(wide.X[:, 0], base.X[:, 0])
        assert wide.X[:, 1:].min() >= 0.0 and wide.X[:, 1:].max() <= 10.0

    def test_validation(self):
        with pytest.raises(DelpointError, match="^n must be >= 1, got 0"):
            generate(n=0)
        with pytest.raises(DelpointError,
                           match="^extra_features must be >= 0, got -1"):
            generate(extra_features=-1)


def test_recipe_matches_the_benchmark_inputs():
    # perfbench writes its inputs with its own generator; both draw the
    # reference recipe, so their constants must agree
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    tree = ast.parse(path.read_text())
    bench = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in RECIPE}
    assert bench == {name: getattr(datagen, name) for name in RECIPE}
