import numpy as np
import pytest

from delpoint import (
    Dataset,
    DegenerateNoise,
    DomainError,
    HyperParams,
    WouldEmptyDataset,
    advantage_target,
    membership_advantage,
    find_perfect_deleted_point,
    membership_error,
    snr_closed_form,
)

from conftest import random_dataset
from _oracles import advantage_formula, snr_by_deletion, snr_definition_form

# Frozen from the mpmath/bisection oracle.
TARGET_001 = 4.652695748081682      # 2 * phi_inv(0.99)
TARGET_005 = 3.2897072539029445     # 2 * phi_inv(0.95)
ADV_D1_A005 = 0.690488977158556     # |phi(phi_inv(0.95) - 1) - 0.05|


class TestSnrForms:
    def test_t3_closed_form(self, t3, hp_default):
        s = snr_closed_form(t3, 0, [0.5], hp_default)
        assert s.numerator == pytest.approx(23 / 6, rel=1e-14)
        assert s.denominator == pytest.approx(0.2, rel=1e-14)
        assert s.d_v == pytest.approx(23 / 1.2, rel=1e-13)
        assert s.d_v == pytest.approx(s.numerator / s.denominator, rel=1e-15)

    def test_t3_matches_deletion_oracle(self, t3, hp_default):
        d_oracle = snr_by_deletion(t3.X.tolist(), t3.y.tolist(), 0, [0.5],
                                   hp_default.gamma, hp_default.sigma)
        assert snr_closed_form(t3, 0, [0.5], hp_default).d_v == pytest.approx(
            d_oracle, rel=1e-12)

    def test_identical_points_give_zero(self, hp_default):
        ds = Dataset.from_arrays([[2.0]] * 5, [3.0] * 5)
        for i in range(5):
            assert snr_closed_form(ds, i, [0.7], hp_default).d_v == \
                pytest.approx(0.0, abs=1e-12)
            assert snr_definition_form(
                ds.X, ds.y, i, [0.7], hp_default.gamma, hp_default.sigma) == \
                pytest.approx(0.0, abs=1e-12)

    def test_zero_feature_point_leaves_s_yx(self, hp_default):
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [0.0, 2.0, 3.0])
        s = snr_closed_form(ds, 0, [0.0], hp_default)
        expected = np.linalg.norm(ds.stats.s_yx) / s.denominator
        assert s.d_v == pytest.approx(expected, rel=1e-14)

    def test_forms_agree_on_random_instances(self, rng):
        for _ in range(100):
            ds = random_dataset(rng)
            w = rng.normal(size=ds.dim)
            hp = HyperParams(gamma=float(rng.uniform(0.001, 1.0)),
                             sigma=float(rng.uniform(0.1, 5.0)),
                             alpha=0.05)
            i = int(rng.integers(ds.n))
            a = snr_closed_form(ds, i, w, hp)
            b = snr_definition_form(ds.X, ds.y, i, w, hp.gamma, hp.sigma)
            assert b == pytest.approx(a.d_v, rel=1e-10)

    def test_consistent_convention_scales(self, t3):
        hp_p = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01)
        hp_c = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01,
                           snr_convention="consistent")
        a = snr_closed_form(t3, 0, [0.5], hp_p)
        b = snr_closed_form(t3, 0, [0.5], hp_c)
        assert b.numerator == pytest.approx(a.numerator, rel=1e-15)
        assert b.denominator == pytest.approx((t3.n - 1) * 2.0 / 2.0, rel=1e-15)
        # the two conventions differ by sqrt(2 * gamma / (n - 1))
        ratio = np.sqrt(2 * 0.01 / (t3.n - 1))
        assert b.d_v * 1.0 == pytest.approx(a.d_v * ratio, rel=1e-12)

    def test_sigma_scaling_inverse(self, t3):
        base = snr_closed_form(
            t3, 1, [0.5], HyperParams(gamma=0.01, sigma=2.0, alpha=0.01))
        for c in (0.5, 3.0, 10.0):
            scaled = snr_closed_form(
                t3, 1, [0.5], HyperParams(gamma=0.01, sigma=2.0 * c, alpha=0.01))
            assert scaled.d_v == pytest.approx(base.d_v / c, rel=1e-12)

    def test_degenerate_noise_rejected(self, t3):
        with pytest.raises(DegenerateNoise):
            snr_closed_form(t3, 0, [0.5],
                            HyperParams(gamma=0.0, sigma=2.0, alpha=0.01))
        with pytest.raises(DegenerateNoise):
            snr_closed_form(t3, 0, [0.5],
                            HyperParams(gamma=0.01, sigma=0.0, alpha=0.01))

    def test_singleton_rejected(self):
        ds = Dataset.from_arrays([[1.0]], [1.0])
        with pytest.raises(WouldEmptyDataset):
            snr_closed_form(ds, 0, [0.5],
                            HyperParams(gamma=0.01, sigma=2.0, alpha=0.01))


class TestAdvantage:
    def test_zero_at_target(self):
        for alpha in (0.01, 0.05, 0.1):
            assert membership_advantage(advantage_target(alpha), alpha) <= 1e-10

    def test_maximal_at_zero_separation(self):
        assert membership_advantage(0.0, 0.01) == pytest.approx(0.98, abs=1e-12)
        assert membership_advantage(0.0, 0.05) == pytest.approx(0.90, abs=1e-12)

    def test_frozen_oracle_value(self):
        assert membership_advantage(1.0, 0.05) == pytest.approx(
            ADV_D1_A005, abs=1e-12)

    def test_matches_scipy_formula(self, rng):
        for _ in range(50):
            d = float(rng.uniform(0, 10))
            alpha = float(rng.uniform(0.005, 0.45))
            assert membership_advantage(d, alpha) == pytest.approx(
                advantage_formula(d, alpha), abs=1e-12)

    def test_strictly_positive_off_target(self):
        alpha = 0.05
        t = advantage_target(alpha)
        for d in (0.0, 0.5 * t, 0.9 * t, 1.1 * t, 2 * t, 5 * t):
            if d != t:
                assert membership_advantage(d, alpha) > 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            membership_advantage(1.0, 0.6)
        with pytest.raises(DomainError):
            membership_advantage(-0.5, 0.05)


class TestMembershipError:
    def test_zero_at_target(self):
        assert membership_error(TARGET_001, 0.01) == pytest.approx(
            0.0, abs=1e-12)

    def test_negative_at_zero(self):
        assert membership_error(0.0, 0.05) == pytest.approx(
            -TARGET_005, abs=1e-12)

    def test_positive_beyond_target(self):
        assert membership_error(5.0, 0.01) == pytest.approx(
            5.0 - TARGET_001, abs=1e-12)

    def test_accepts_snr_value(self, t3, hp_default):
        s = snr_closed_form(t3, 0, [0.5], hp_default)
        assert membership_error(s, 0.01) == pytest.approx(
            s.d_v - TARGET_001, abs=1e-12)


class TestScan:
    def test_matches_per_point_calls(self, rng):
        ds = random_dataset(rng, n=15, d=3)
        w = rng.normal(size=3)
        hp = HyperParams(gamma=0.05, sigma=1.5, alpha=0.05)
        scores = find_perfect_deleted_point(ds, w, hp).all_scores
        assert len(scores) == ds.n
        for pos, s in enumerate(scores):
            single = snr_closed_form(ds, pos, w, hp)
            assert s.index == pos
            assert s.d_v == pytest.approx(single.d_v, rel=1e-12)
            assert s.eps_v == pytest.approx(
                single.d_v - advantage_target(0.05), abs=1e-10)
            assert s.distance == pytest.approx(abs(s.eps_v), abs=0)
            assert s.advantage == pytest.approx(
                membership_advantage(s.d_v, 0.05), abs=1e-12)
            assert s.feature_norm == pytest.approx(
                np.linalg.norm(ds.X[pos]), rel=1e-12)

    def test_scores_csv(self, tmp_path, t3, hp_default):
        from delpoint import write_scores_csv
        scores = find_perfect_deleted_point(t3, [0.5], hp_default).all_scores
        path = tmp_path / "scores.csv"
        write_scores_csv(scores, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,d_v,eps_v,advantage,feature_norm"
        assert len(lines) == 1 + t3.n
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(23 / 1.2, rel=1e-12)
