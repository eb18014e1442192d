import json

import numpy as np
import pytest
from scipy.stats import chi2

from delpoint import (
    Dataset,
    DegenerateNoise,
    DomainError,
    EmptyInput,
    GenConfig,
    HyperParams,
    StepConfig,
    TooManyDeletions,
    advantage_target,
    empirical_advantage,
    generate,
    make_rng,
    membership_advantage,
    risk_grad,
    run_protocol,
    sgd_step,
    summarize,
)
from delpoint.sim import experiment_to_doc
from delpoint.snr import snr_closed_form

from conftest import assign_labels_1d, random_dataset


def reference_dataset():
    return generate(GenConfig())  # 200 points, defaults


class TestSgdStep:
    def test_zero_gamma_is_identity(self, t3):
        hp = HyperParams(gamma=0.0, sigma=2.0, alpha=0.01)
        w = np.array([0.7])
        out = sgd_step(w, t3, hp, make_rng(0))
        np.testing.assert_array_equal(out, w)

    def test_zero_sigma_is_plain_gradient_step(self, t3):
        hp = HyperParams(gamma=0.05, sigma=0.0, alpha=0.01)
        w = np.array([0.7])
        out = sgd_step(w, t3, hp, make_rng(0))
        np.testing.assert_allclose(out, w - 0.05 * risk_grad(w, t3), rtol=1e-15)

    def test_conditional_mean_from_zero_start(self):
        ds = reference_dataset()
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, seed=5)
        expected = 2 * hp.gamma * ds.stats.s_yx  # w0 = 0 makes E[w1] = 2g s_yx
        rng = make_rng(hp.seed)
        draws = np.array([sgd_step(np.zeros(1), ds, hp, rng)[0]
                          for _ in range(10_000)])
        assert abs(draws.mean() - expected[0]) <= 4 * hp.gamma * hp.sigma / 100


class TestRunProtocol:
    @pytest.mark.parametrize("protocol", ["no_delete", "perfect_delete"])
    def test_one_step_variance_in_chi2_band(self, protocol):
        # these protocols delete deterministically (or not at all), so the
        # only randomness in the final weight is the noise draw
        ds = reference_dataset()
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, seed=11)
        cfg = StepConfig(protocol=protocol, steps=1, iterations=100,
                         hp=hp, w0=np.zeros(1))
        result = run_protocol(cfg, ds)
        k = cfg.iterations - 1
        base = (hp.gamma * hp.sigma) ** 2
        lo = base * chi2.ppf(0.005, k) / k
        hi = base * chi2.ppf(0.995, k) / k
        assert lo <= result.variance[0] <= hi

    def test_one_step_variance_random_delete_includes_drift(self):
        # the random choice of deleted point adds a drift term on top of
        # the noise variance: w1 = const - gamma * (2 u_v / (n-1) + eta)
        # with u_v the point's score numerator at w0 = 0
        ds = reference_dataset()
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, seed=11)
        cfg = StepConfig(protocol="random_delete", steps=1, iterations=100,
                         hp=hp, w0=np.zeros(1))
        result = run_protocol(cfg, ds)
        u = ds.y * ds.X[:, 0] - ds.stats.s_yx[0]
        total = (hp.gamma * hp.sigma) ** 2 \
            + (2 * hp.gamma / (ds.n - 1)) ** 2 * u.var()
        k = cfg.iterations - 1
        assert total * chi2.ppf(0.005, k) / k <= result.variance[0] \
            <= total * chi2.ppf(0.995, k) / k

    def test_deterministic_trajectory_without_noise(self, t3):
        hp = HyperParams(gamma=0.05, sigma=0.0, alpha=0.01, seed=3)
        cfg = StepConfig(protocol="no_delete", steps=4, iterations=1,
                         hp=hp, w0=np.array([0.0]))
        result = run_protocol(cfg, t3)
        w = np.array([0.0])
        for _ in range(4):
            w = w - hp.gamma * risk_grad(w, t3)
        np.testing.assert_allclose(result.final_weights[0], w, rtol=1e-14)
        assert result.variance[0] == 0.0

    def test_one_step_means_match_conditional_means(self):
        ds = reference_dataset()
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, seed=17)
        w0 = np.zeros(1)
        res_no = run_protocol(StepConfig(protocol="no_delete", steps=1,
                                         iterations=100, hp=hp, w0=w0), ds)
        res_pf = run_protocol(StepConfig(protocol="perfect_delete", steps=1,
                                         iterations=100, hp=hp, w0=w0), ds)
        # the step-1 selection happens before any noise, so the deleted
        # point is the same in every iteration
        deleted = {log[0] for log in res_pf.deletions_log}
        assert len(deleted) == 1
        from delpoint import delete_point, find_perfect_deleted_point
        sel = find_perfect_deleted_point(ds, w0, hp)
        assert deleted == {sel.best.index}
        reduced = delete_point(ds, ds.position_of(sel.best.index))
        m_no = w0 - hp.gamma * risk_grad(w0, ds)
        m_pf = w0 - hp.gamma * risk_grad(w0, reduced)
        mc_tol = 4 * hp.gamma * hp.sigma / np.sqrt(100)
        assert abs(res_no.mean[0] - m_no[0]) <= mc_tol
        assert abs(res_pf.mean[0] - m_pf[0]) <= mc_tol
        gap = hp.gamma * abs(risk_grad(w0, reduced)[0] - risk_grad(w0, ds)[0])
        assert abs(res_pf.mean[0] - res_no.mean[0]) <= gap + 2 * mc_tol

    def test_reproducible_for_fixed_seed(self, rng):
        ds = random_dataset(rng, n=25, d=2)
        hp = HyperParams(gamma=0.02, sigma=1.0, alpha=0.05, seed=42)
        cfg = StepConfig(protocol="random_delete", steps=5, iterations=10,
                         hp=hp, w0=np.zeros(2))
        a = run_protocol(cfg, ds)
        b = run_protocol(cfg, ds)
        np.testing.assert_array_equal(a.final_weights, b.final_weights)
        assert json.dumps(experiment_to_doc(a)) == json.dumps(experiment_to_doc(b))

    def test_paired_noise_across_protocols(self, rng):
        # delta = 0 turns every perfect step into a no-deletion step, and
        # the shared per-iteration noise stream makes the runs identical
        ds = random_dataset(rng, n=15, d=1)
        hp = HyperParams(gamma=0.01, sigma=1.5, alpha=0.05, delta=0.0, seed=9)
        pf = run_protocol(StepConfig(protocol="perfect_delete", steps=3,
                                     iterations=8, hp=hp, w0=np.zeros(1)), ds)
        no = run_protocol(StepConfig(protocol="no_delete", steps=3,
                                     iterations=8, hp=hp, w0=np.zeros(1)), ds)
        np.testing.assert_array_equal(pf.final_weights, no.final_weights)
        assert all(log == [None, None, None] for log in pf.deletions_log)

    def test_random_delete_logs_distinct_original_ids(self, rng):
        ds = random_dataset(rng, n=12, d=1)
        hp = HyperParams(gamma=0.01, sigma=1.0, alpha=0.05, seed=2)
        res = run_protocol(StepConfig(protocol="random_delete", steps=6,
                                      iterations=5, hp=hp, w0=np.zeros(1)), ds)
        for log in res.deletions_log:
            assert len(log) == 6
            assert len(set(log)) == 6
            assert all(0 <= pid < 12 for pid in log)

    def test_fifty_step_variance_ordering(self):
        # random deletion inflates the spread; selected deletion stays on
        # the order of no deletion
        ds = reference_dataset()
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=100.0,
                         seed=4)
        variances = {}
        for proto in ("perfect_delete", "random_delete", "no_delete"):
            cfg = StepConfig(protocol=proto, steps=50, iterations=100,
                             hp=hp, w0=np.zeros(1))
            variances[proto] = run_protocol(cfg, ds).variance[0]
        assert variances["random_delete"] > variances["perfect_delete"]
        ratio = variances["no_delete"] / variances["perfect_delete"]
        assert 0.1 <= ratio <= 10.0

    def test_too_many_deletions_rejected(self, rng):
        ds = random_dataset(rng, n=5, d=1)
        hp = HyperParams(gamma=0.01, sigma=1.0, alpha=0.05)
        with pytest.raises(TooManyDeletions):
            run_protocol(StepConfig(protocol="random_delete", steps=5,
                                    iterations=2, hp=hp, w0=np.zeros(1)), ds)
        # no_delete has no such limit
        run_protocol(StepConfig(protocol="no_delete", steps=5, iterations=2,
                                hp=hp, w0=np.zeros(1)), ds)

    def test_parallel_jobs_match_serial(self, rng):
        ds = random_dataset(rng, n=20, d=1)
        hp = HyperParams(gamma=0.01, sigma=1.0, alpha=0.05, seed=31)
        cfg = StepConfig(protocol="perfect_delete", steps=3, iterations=8,
                         hp=hp, w0=np.zeros(1))
        serial = run_protocol(cfg, ds, jobs=1)
        parallel = run_protocol(cfg, ds, jobs=2)
        np.testing.assert_array_equal(serial.final_weights,
                                      parallel.final_weights)
        assert serial.deletions_log == parallel.deletions_log

    def test_config_validation(self, t3):
        hp = HyperParams(gamma=0.01, sigma=1.0, alpha=0.05)
        with pytest.raises(DomainError):
            StepConfig(protocol="nope", steps=1, iterations=1, hp=hp,
                       w0=np.zeros(1))
        with pytest.raises(DomainError):
            StepConfig(protocol="no_delete", steps=0, iterations=1, hp=hp,
                       w0=np.zeros(1))
        with pytest.raises(DomainError):
            StepConfig(protocol="no_delete", steps=1, iterations=0, hp=hp,
                       w0=np.zeros(1))


class TestSummarize:
    def test_constant_sequence(self):
        _, variance, histograms = summarize(np.full((7, 1), 2.5), bins=5)
        assert variance[0] == 0.0
        assert histograms[0].counts.sum() == 7
        assert (histograms[0].counts > 0).sum() == 1

    def test_hand_values(self):
        mean, variance, _ = summarize(np.array([[1.0], [2.0], [3.0]]), bins=2)
        assert mean[0] == pytest.approx(2.0)
        assert variance[0] == pytest.approx(1.0)

    def test_counts_partition_sample(self, rng):
        draws = rng.normal(size=(250, 2))
        _, _, histograms = summarize(draws, bins=30)
        for hist in histograms:
            assert hist.counts.sum() == 250
            assert len(hist.edges) == 31

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            summarize(np.empty((0, 1)), bins=5)


class TestEmpiricalAdvantage:
    def test_validations(self, t3):
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.05)
        with pytest.raises(DomainError):
            empirical_advantage(t3, 0, np.zeros(1), hp, trials=10)
        with pytest.raises(DegenerateNoise):
            empirical_advantage(t3, 0, np.zeros(1),
                                HyperParams(gamma=0.0, sigma=2.0, alpha=0.05),
                                trials=2000)

    def test_identical_points_maximal_advantage(self):
        ds = Dataset.from_arrays([[2.0]] * 6, [3.0] * 6)
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.05, seed=8)
        est = empirical_advantage(ds, 0, np.array([0.4]), hp, trials=100_000)
        assert abs(est - 0.90) <= 3 / np.sqrt(100_000)

    def test_target_separation_nulls_advantage(self):
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.05, seed=14,
                         snr_convention="consistent")
        w = np.array([0.3])
        target = advantage_target(hp.alpha)
        rng = np.random.default_rng(5)
        X = rng.uniform(0.5, 2.0, (6, 1))
        y = assign_labels_1d(X, w, hp, [target, 1.0, 2.0, 6.0, 7.0])
        ds = Dataset.from_arrays(X, y)
        assert snr_closed_form(ds, 0, w, hp).d_v == pytest.approx(target,
                                                                  rel=1e-12)
        est = empirical_advantage(ds, 0, w, hp, trials=100_000)
        assert abs(est) <= 3 / np.sqrt(100_000)

    def test_matches_closed_form_on_random_instances(self, rng):
        trials = 50_000
        for _ in range(5):
            ds = random_dataset(rng, n=int(rng.integers(3, 10)), d=2)
            w = rng.normal(size=2)
            hp = HyperParams(gamma=float(rng.uniform(0.01, 0.2)),
                             sigma=float(rng.uniform(0.5, 3.0)),
                             alpha=0.05, seed=int(rng.integers(1_000_000)),
                             snr_convention="consistent")
            i = int(rng.integers(ds.n))
            closed = membership_advantage(snr_closed_form(ds, i, w, hp).d_v,
                                          hp.alpha)
            est = empirical_advantage(ds, i, w, hp, trials=trials)
            assert abs(est - closed) <= 3 / np.sqrt(trials)
