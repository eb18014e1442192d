import dataclasses
import json
import warnings

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
    NumericOverflow,
    StepConfig,
    TooManyDeletions,
    WouldEmptyDataset,
    advantage_target,
    generate,
    make_rng,
    membership_advantage,
    run_protocol,
    summarize,
)
from delpoint import sim, snr
from delpoint.sim import PROTOCOLS
from delpoint.snr import scan_arrays

from conftest import assign_labels_1d, random_dataset
from _oracles import (IndexOutOfRange, delete_point, empirical_advantage,
                      risk_grad, run_protocol_loop, sgd_step, summary_doc)


def reference_dataset():
    return generate(GenConfig())  # 200 points, defaults


class TestSgdStep:
    """The reference step of run_protocol_loop."""

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
        expected = 2 * hp.gamma * ds.s_yx  # w0 = 0 makes E[w1] = 2g s_yx
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
        u = ds.y * ds.X[:, 0] - ds.s_yx[0]
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
        from delpoint import find_perfect_deleted_point
        sel = find_perfect_deleted_point(ds, w0, hp)
        assert deleted == {sel.best.index}
        reduced = delete_point(ds, sel.best.index)
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
        assert json.dumps(summary_doc({}, a)) == json.dumps(summary_doc({}, b))

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

    @pytest.mark.parametrize("protocol, s_yx, s_xx", [
        # the moments of test_core's overflowing update: n s_yx = 3e308
        ("random_delete", [1e308], [[1.0]]),
        # n s_xx = 3e308; at w0 = 0 the scan never multiplies by s_xx, so
        # the selection succeeds and the downdate overflows
        ("random_delete", [1.0], [[1e308]]),
        ("perfect_delete", [1.0], [[1e308]]),
    ], ids=["random_delete-s_yx", "random_delete-s_xx",
            "perfect_delete-s_xx"])
    def test_overflowing_downdate_rejected(self, protocol, s_yx, s_xx):
        ds = Dataset.from_arrays([[1.0], [1.0], [1.0]], [1.0, 1.0, 1.0])
        big = dataclasses.replace(ds, s_yx=np.array(s_yx, dtype=float),
                                  s_xx=np.array(s_xx, dtype=float))
        hp = HyperParams(gamma=0.01, sigma=1.0, alpha=0.05)
        cfg = StepConfig(protocol=protocol, steps=1, iterations=2, hp=hp,
                         w0=np.zeros(1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericOverflow,
                               match="updated sufficient statistics"):
                run_protocol(cfg, big)
        assert [str(w.message) for w in caught] == []

    def test_overflowing_scores_rejected(self):
        # the moments and feature norms are finite, but every live point's
        # squared perturbation norm overflows in the first scan
        ds = Dataset.from_arrays([[1e100], [2e100], [1e100]],
                                 [1e100, 1e100, 3e100])
        hp = HyperParams(gamma=0.01, sigma=1.0, alpha=0.05)
        cfg = StepConfig(protocol="perfect_delete", steps=2, iterations=3,
                         hp=hp, w0=np.zeros(1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericOverflow,
                               match="candidate scores overflow"):
                run_protocol(cfg, ds)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_tie_break_checked_at_construction(self, protocol):
        # checked even where the protocol never breaks a tie
        hp = HyperParams(gamma=0.01, sigma=1.0, alpha=0.05)
        with pytest.raises(DomainError, match="tie_break"):
            StepConfig(protocol=protocol, steps=1, iterations=1, hp=hp,
                       w0=np.zeros(1), tie_break="bogus")


def assert_matches_loop(cfg, ds):
    result = run_protocol(cfg, ds)
    weights, logs = run_protocol_loop(cfg, ds)
    assert np.array_equal(result.final_weights, weights)
    assert result.deletions_log == logs
    return result


def loop_config(protocol, d, tie_break="norm-first", **hp_args):
    hp = HyperParams(**{"gamma": 0.05, "sigma": 1.0, "alpha": 0.05,
                        "seed": 3, **hp_args})
    return StepConfig(protocol=protocol, steps=10, iterations=12, hp=hp,
                      w0=np.full(d, 0.5), tie_break=tie_break)


class TestBatchedEngine:
    """run_protocol against the serial per-iteration loop, bit for bit."""

    @pytest.mark.parametrize("convention", ["paper", "consistent"])
    @pytest.mark.parametrize("tie_break", ["norm-first", "paper"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_matches_serial_loop(self, protocol, d, tie_break, convention):
        ds = random_dataset(np.random.default_rng(d), n=40, d=d)
        assert_matches_loop(
            loop_config(protocol, d, tie_break, snr_convention=convention), ds)

    @pytest.mark.parametrize("tie_break", ["norm-first", "paper"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_skips_vary_across_iterations(self, d, tie_break):
        # a small delta skips some steps, so the iterations of one block
        # hold different numbers of points
        ds = random_dataset(np.random.default_rng(d), n=40, d=d)
        result = assert_matches_loop(
            loop_config("perfect_delete", d, tie_break, delta=0.1), ds)
        assert len({log.count(None) for log in result.deletions_log}) > 1

    @pytest.mark.parametrize("protocol", ["random_delete", "no_delete"])
    def test_without_noise(self, protocol):
        # sigma = 0 draws nothing from the noise stream
        ds = random_dataset(np.random.default_rng(3), n=40, d=3)
        result = assert_matches_loop(loop_config(protocol, 3, sigma=0.0), ds)
        if protocol == "no_delete":
            assert np.ptp(result.final_weights, axis=0).max() == 0.0

    @pytest.mark.parametrize("tie_break", ["norm-first", "paper"])
    def test_duplicated_points_tie(self, tie_break):
        # every point appears three times, so the first scan's minimum is
        # attained three times in every iteration
        rng = np.random.default_rng(4)
        base = random_dataset(rng, n=12, d=1)
        ds = Dataset.from_arrays(np.repeat(base.X, 3, axis=0),
                                 np.repeat(base.y, 3))
        result = assert_matches_loop(
            loop_config("perfect_delete", 1, tie_break), ds)
        assert all(None not in log for log in result.deletions_log)

    @pytest.mark.parametrize("n, steps, iterations",
                             [(12, 11, 6), (3000, 20, 5)],
                             ids=["last-draw-of-two", "n-3000"])
    def test_random_schedule_edges(self, n, steps, iterations):
        # the schedule is one integers call over the highs n .. n-steps+1;
        # the loop makes one scalar call per step
        ds = random_dataset(np.random.default_rng(5), n=n, d=2)
        cfg = dataclasses.replace(loop_config("random_delete", 2),
                                  steps=steps, iterations=iterations)
        result = assert_matches_loop(cfg, ds)
        assert all(len(set(log)) == steps for log in result.deletions_log)

    @pytest.mark.parametrize("hp_args", [{"sigma": 0.0}, {"gamma": 0.0}])
    def test_perfect_delete_needs_noise(self, hp_args):
        ds = random_dataset(np.random.default_rng(1), n=20, d=1)
        cfg = loop_config("perfect_delete", 1, **hp_args)
        with pytest.raises(DegenerateNoise):
            run_protocol(cfg, ds)
        with pytest.raises(DegenerateNoise):
            run_protocol_loop(cfg, ds)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_block_size_does_not_change_results(self, monkeypatch, protocol):
        ds = random_dataset(np.random.default_rng(3), n=40, d=3)
        cfg = loop_config(protocol, 3, delta=0.1)
        results = []
        for per_block in (1, 7, cfg.iterations):
            monkeypatch.setattr(sim, "_BLOCK_ELEMS",
                                per_block * (ds.n + cfg.steps) * ds.dim)
            results.append(run_protocol(cfg, ds))
        for other in results[1:]:
            assert np.array_equal(other.final_weights,
                                  results[0].final_weights)
            assert other.deletions_log == results[0].deletions_log


    def test_dead_points_read_inf(self):
        # a deleted point is never a candidate, whatever its score
        d_v = np.array([[1.0, np.nan, 3.0, np.inf],
                        [np.inf, 2.0, np.nan, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps, dist = sim._distances(d_v, 1.0, np.array([1, 3, 4, 6]),
                                       np.empty_like(d_v))
        assert dist.tolist() == [[0.0, np.inf, 2.0, np.inf],
                                 [np.inf, 1.0, np.inf, 0.5]]
        assert eps[0, [0, 2]].tolist() == [0.0, 2.0]
        assert eps[1, [1, 3]].tolist() == [1.0, -0.5]

    @pytest.mark.parametrize("bad", [np.nan, 1e200])
    def test_dead_scores_need_not_be_finite(self, bad):
        # point 2's score is NaN, or overflows; the scan raises unless
        # it is deleted in every row
        X = np.array([[1.0], [2.0], [bad]])
        y = np.array([1.0, 2.0, 3.0])
        s_yx, s_xx, w = np.ones((2, 1)), np.ones((2, 1, 1)), np.full((2, 1), 0.5)
        denom = np.ones((2, 1))
        hp = HyperParams(gamma=1.0, sigma=1.0, alpha=0.05)
        dead = np.array([2, 5])  # flat positions of point 2 in both rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_v = snr._scores(X, y, s_yx, s_xx, w, denom, hp, dead)
            assert np.isfinite(d_v[:, :2]).all()
            assert not np.isfinite(d_v[:, 2]).any()
            for some in ([], [2]):
                with pytest.raises(NumericOverflow,
                                   match="candidate scores overflow"):
                    snr._scores(X, y, s_yx, s_xx, w, denom, hp, some)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_downdated_moments_match_survivors(self, seed):
        # 900 of 1,000 points deleted on the engine's random_delete
        # schedule, through the downdates of delete_point (the engine's,
        # bit for bit, by the tests above); the moments drift from those
        # of the surviving rows by under 1e-12 relative
        ds = generate(GenConfig(n=1000, extra_features=2))
        left, cur = list(range(ds.n)), ds
        for v in sim._random_schedule(ds.n, 900, make_rng(seed, 0, 1)):
            pos = left.index(v)
            cur = delete_point(cur, pos)
            del left[pos]
        fresh = Dataset.from_arrays(ds.X[left], ds.y[left])
        np.testing.assert_array_equal(cur.X, fresh.X)
        np.testing.assert_allclose(cur.s_yx, fresh.s_yx, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cur.s_xx, fresh.s_xx, rtol=1e-12, atol=0)


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

    def test_deletion_guards(self, t3):
        # the leave-one-out mean needs a real position and a survivor;
        # a negative index must not wrap around to the last point
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.05)
        for index in (-1, t3.n):
            with pytest.raises(IndexOutOfRange):
                empirical_advantage(t3, index, np.zeros(1), hp, trials=1000)
        with pytest.raises(WouldEmptyDataset):
            empirical_advantage(Dataset.from_arrays([[1.0]], [2.0]), 0,
                                np.zeros(1), hp, trials=1000)

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
        assert scan_arrays(ds, w, hp)["d_v"][0] == pytest.approx(target,
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
            closed = membership_advantage(scan_arrays(ds, w, hp)["d_v"][i],
                                          hp.alpha)
            est = empirical_advantage(ds, i, w, hp, trials=trials)
            assert abs(est - closed) <= 3 / np.sqrt(trials)
