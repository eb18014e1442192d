import math
import statistics

import numpy as np
import pytest

from delpoint import DelpointError, make_rng, phi, phi_inv

from _oracles import sample_gaussian

# Frozen from a 40-digit mpmath oracle (erfc series + bisection on phi).
PHI_196 = 0.9750021048517795
PHI_INV_099 = 2.3263478740408408
PHI_INV_095 = 1.6448536269514722


class TestPhi:
    def test_symmetry_at_zero(self):
        assert phi(0.0) == 0.5

    def test_oracle_value(self):
        assert phi(1.96) == pytest.approx(PHI_196, abs=1e-13)

    def test_reflection_identity(self):
        for z in np.linspace(-8, 8, 97):
            assert phi(-z) == pytest.approx(1.0 - phi(z), abs=1e-13)

    def test_against_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        zs = np.linspace(-8.0, 8.0, 641)
        vals = phi(zs)
        for z, v in zip(zs, vals):
            exact = float(mp.mpf(1) / 2 * mp.erfc(-mp.mpf(z) / mp.sqrt(2)))
            assert abs(v - exact) <= 1e-12

    def test_monotone_on_grid(self):
        # strictly increasing where increments exceed float spacing,
        # nondecreasing out to the saturated tails
        central = phi(np.linspace(-6, 6, 2001))
        assert np.all(np.diff(central) > 0)
        wide = phi(np.linspace(-8, 8, 2001))
        assert np.all(np.diff(wide) >= 0)

    def test_non_finite_rejected(self):
        with pytest.raises(DelpointError, match="phi requires finite input"):
            phi(float("nan"))
        with pytest.raises(DelpointError, match="phi requires finite input"):
            phi(float("inf"))

    def test_array_matches_scalar(self):
        zs = np.array([-3.0, -0.2, 0.0, 1.7, 6.5])
        np.testing.assert_array_equal(phi(zs), [phi(float(z)) for z in zs])


class TestPhiInv:
    def test_median(self):
        assert phi_inv(0.5) == 0.0

    @pytest.mark.parametrize("p,expected", [(0.99, PHI_INV_099),
                                            (0.95, PHI_INV_095)])
    def test_oracle_values(self, p, expected):
        assert phi_inv(p) == pytest.approx(expected, abs=1e-10)

    def test_round_trip(self):
        grid = np.concatenate([
            [1e-6, 1e-4, 1e-2], np.linspace(0.05, 0.95, 19),
            [0.99, 0.9999, 1 - 1e-6]])
        for p in grid:
            assert abs(phi(phi_inv(float(p))) - p) <= 1e-10

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-10, 1e-3, 0.01, 0.05,
                                   0.25, 0.5, 0.75, 0.99, 1 - 2 ** -53])
    def test_bits_of_normal_dist_and_one_newton_step(self, p):
        # the standard library's NormalDist.inv_cdf on the lower tail and
        # the same Newton step, as phi_inv computed them before it took
        # AS 241 from _statistics
        lower = min(p, 1.0 - p)
        x = statistics.NormalDist().inv_cdf(lower)
        pdf = 1.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * x * x)
        if pdf > 0.0:
            x -= (0.5 * math.erfc(-x / math.sqrt(2.0)) - lower) / pdf
        want = x if p <= 0.5 else -x
        assert phi_inv(p).hex() == want.hex()

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.5, float("nan")):
            with pytest.raises(DelpointError,
                               match="phi_inv requires 0 < p < 1"):
                phi_inv(bad)


class TestSampling:
    """Seeded streams, and the noise draw of run_protocol_loop's
    reference step."""

    def test_zero_std_is_exact(self):
        rng = make_rng(7)
        out = sample_gaussian(rng, [1.0, 2.0], 0.0)
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_moments_large_sample(self):
        rng = make_rng(2024)
        draws = sample_gaussian(rng, np.zeros(100_000), 1.0)
        assert abs(draws.mean()) <= 0.02
        assert 0.97 <= draws.var() <= 1.03

    def test_negative_std_rejected(self):
        with pytest.raises(DelpointError, match="^std must be >= 0"):
            sample_gaussian(make_rng(0), [0.0], -1.0)

    def test_seed_determinism(self):
        a = sample_gaussian(make_rng(99, 3), np.zeros(10), 2.0)
        b = sample_gaussian(make_rng(99, 3), np.zeros(10), 2.0)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_subkey(self):
        a = make_rng(99, 0).standard_normal(8)
        b = make_rng(99, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_subkey_path_independent_of_master(self):
        assert not np.array_equal(make_rng(1).standard_normal(4),
                                  make_rng(2).standard_normal(4))


def test_phi_inv_agrees_with_bisection():
    # independent root-find of phi(x) = p, kept free of phi_inv internals
    def bisect(p):
        lo, hi = -10.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if phi(mid) < p:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    for p in (0.01, 0.2, 0.5, 0.9, 0.99, 0.999):
        assert phi_inv(p) == pytest.approx(bisect(p), abs=1e-11)
