"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
from scipy.stats import chi2

from delpoint import (
    Dataset,
    HyperParams,
    StepConfig,
    advantage_target,
    find_perfect_deleted_point,
    generate,
    membership_advantage,
    privacy_floor,
    run_protocol,
)
from delpoint.bounds import bounds_arrays
from delpoint.snr import scan_arrays

from _oracles import (bounds_calc, empirical_advantage, privacy_floor_calc,
                      select_strict_loop, snr_definition_form)

PF_NEG1_A005 = 0.19021616457866483  # frozen mpmath oracle value


def _report(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


def test_criterion_01_snr_forms_agree():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n, d = int(rng.integers(2, 51)), int(rng.integers(1, 6))
        ds = Dataset.from_arrays(rng.normal(0, 3, (n, d)), rng.normal(0, 5, n))
        w = rng.normal(size=d)
        hp = HyperParams(gamma=float(rng.uniform(0.001, 1.0)),
                         sigma=float(rng.uniform(0.1, 5.0)),
                         alpha=0.05)
        i = int(rng.integers(n))
        a = scan_arrays(ds, w, hp)["d_v"][i]
        b = snr_definition_form(ds.X, ds.y, i, w, hp.gamma, hp.sigma)
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"1000 instances, worst rel diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_selection_matches_exhaustive_scan():
    rng = np.random.default_rng(202)
    hp = HyperParams(gamma=0.02, sigma=1.5, alpha=0.05, delta=100.0)
    start = time.perf_counter()
    for _ in range(200):
        ds = Dataset.from_arrays(rng.normal(0, 3, (20, 2)),
                                 rng.normal(0, 5, 20))
        w = rng.normal(size=2)
        got = find_perfect_deleted_point(ds, w, hp, tie_break="paper")
        expect = select_strict_loop(ds.X.tolist(), ds.y.tolist(), w.tolist(),
                                    hp.gamma, hp.sigma, hp.alpha, hp.delta)
        got_idx = got["best"]
        assert got_idx == expect
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"200 instances ({elapsed:.2f}s)")


def test_criterion_03_advantage_identities():
    for alpha in (0.01, 0.05, 0.1):
        at_target = membership_advantage(advantage_target(alpha), alpha)
        assert at_target <= 1e-10
        at_zero = membership_advantage(0.0, alpha)
        assert abs(at_zero - (1 - 2 * alpha)) <= 1e-10
    _report(3, "advantage(target)=0 and advantage(0)=1-2a for a in "
               "{0.01, 0.05, 0.1}")


def test_criterion_04_privacy_floor_identities():
    for alpha in (0.01, 0.05, 0.1, 0.25):
        assert privacy_floor(0.0, alpha) == 0.0
    for eps in (0.0, 1e-6, 0.1, 1.0, 4.0, 25.0):
        assert privacy_floor(eps, 0.05) == 0.0
    val = privacy_floor(-1.0, 0.05)
    assert val > 0.0
    assert abs(val - PF_NEG1_A005) <= 1e-6
    _report(4, f"floor(-1, 0.05) = {val:.10f} vs oracle {PF_NEG1_A005:.10f}")


def _one_step_no_delete():
    ds = generate()
    hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, seed=0)
    cfg = StepConfig(protocol="no_delete", steps=1, iterations=100,
                     hp=hp, w0=np.zeros(1))
    return ds, run_protocol(cfg, ds)


def test_criterion_05_one_step_variance_law():
    start = time.perf_counter()
    _, result = _one_step_no_delete()
    elapsed = time.perf_counter() - start
    base = (0.01 * 2.0) ** 2  # gamma^2 sigma^2 = 4.0e-4
    lo = base * chi2.ppf(0.005, 99) / 99
    hi = base * chi2.ppf(0.995, 99) / 99
    v = result.variance[0]
    assert lo <= v <= hi
    assert lo <= 0.00046 <= hi  # reference observed variance, same band
    assert elapsed < 1.0
    _report(5, f"variance {v:.3e} in [{lo:.3e}, {hi:.3e}], {elapsed:.2f}s")


def test_criterion_06_one_step_mean_law():
    start = time.perf_counter()
    ds, result = _one_step_no_delete()
    elapsed = time.perf_counter() - start
    expected = 2 * 0.01 * ds.s_yx[0]
    tol = 4 * (0.01 * 2.0 / np.sqrt(100))  # 8e-3
    err = abs(result.mean[0] - expected)
    assert err <= tol
    assert elapsed < 1.0
    _report(6, f"|mean - 2*gamma*s_yx| = {err:.2e} <= {tol:.0e}, {elapsed:.2f}s")


def test_criterion_07_multi_step_variance_ordering():
    ds = generate()
    w0 = np.zeros(1)
    start = time.perf_counter()
    wins = 0
    ratios = []
    for seed in range(10):
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=100.0,
                         seed=seed)
        var_p = run_protocol(StepConfig(protocol="perfect_delete", steps=50,
                                        iterations=100, hp=hp, w0=w0),
                             ds).variance[0]
        var_r = run_protocol(StepConfig(protocol="random_delete", steps=50,
                                        iterations=100, hp=hp, w0=w0),
                             ds).variance[0]
        ratios.append(var_r / var_p)
        if var_r / var_p >= 3.0:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 8
    assert elapsed < 60.0
    _report(7, f"ratio >= 3 in {wins}/10 seeds "
               f"(min {min(ratios):.1f}, max {max(ratios):.1f}), {elapsed:.1f}s")


def test_criterion_08_empirical_advantage_agreement():
    rng = np.random.default_rng(808)
    trials = 100_000
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(3, 12)), int(rng.integers(1, 4))
        ds = Dataset.from_arrays(rng.normal(0, 3, (n, d)), rng.normal(0, 5, n))
        w = rng.normal(size=d)
        hp = HyperParams(gamma=float(rng.uniform(0.01, 0.3)),
                         sigma=float(rng.uniform(0.5, 3.0)),
                         alpha=float(rng.uniform(0.01, 0.2)),
                         seed=int(rng.integers(1_000_000)),
                         snr_convention="consistent")
        i = int(rng.integers(n))
        closed = membership_advantage(scan_arrays(ds, w, hp)["d_v"][i],
                                      hp.alpha)
        est = empirical_advantage(ds, i, w, hp, trials=trials)
        diff = abs(est - closed)
        worst = max(worst, diff)
        assert diff <= 3 / np.sqrt(trials)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"20 instances, worst |emp - closed| = {worst:.2e} "
               f"<= {3 / np.sqrt(trials):.2e}, {elapsed:.1f}s")


def test_criterion_09_bound_goldens_and_containment_report():
    # with the scan's own eps_v the per-point interval holds the
    # absolute-residual change on every row at d >= 2, under both
    # conventions; at d = 1, where one side is an equality, it is reported
    rng = np.random.default_rng(909)
    one_d = {"rows": 0, "B": 0}
    for _ in range(50):
        n, d = int(rng.integers(3, 20)), int(rng.integers(1, 4))
        ds = Dataset.from_arrays(rng.normal(1, 2, (n, d)), rng.normal(0, 4, n))
        w = rng.normal(size=d)
        noise = {"gamma": float(rng.uniform(0.001, 0.5)),
                 "sigma": float(rng.uniform(0.5, 4.0)),
                 "alpha": float(rng.uniform(0.01, 0.4))}
        i = int(rng.integers(n))
        for convention in ("consistent", "paper"):
            hp = HyperParams(**noise, snr_convention=convention)
            scan = scan_arrays(ds, w, hp)
            cols = bounds_arrays(scan, hp.alpha)
            if d >= 2:
                assert cols["contained_b"].all(), (convention, n, d)
            elif convention == "paper":
                one_d["rows"] += n
                one_d["B"] += int(cols["contained_b"].sum())
        eps = scan["eps_v"]
        lo, hi = bounds_calc(ds.X.tolist(), ds.y.tolist(), i, w.tolist(),
                                hp.gamma, hp.sigma, hp.alpha, eps[i])
        assert abs(cols["lower"][i] - lo) <= 1e-10 * max(1.0, abs(lo))
        assert abs(cols["upper"][i] - hi) <= 1e-10 * max(1.0, abs(hi))
        for e, pf in zip(eps.tolist(), cols["privacy_floor"].tolist()):
            assert abs(pf - privacy_floor_calc(e, hp.alpha)) <= 1e-10
    _report(9, f"50 inputs match reference to 1e-10; contained_B on every "
               f"row at d >= 2 under both conventions; at d = 1 "
               f"{one_d['B']}/{one_d['rows']} rows")


def test_criterion_10_selection_scales_linearly():
    rng = np.random.default_rng(110)
    hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01)
    warm = Dataset.from_arrays(rng.normal(size=(1000, 2)),
                               rng.normal(size=1000))
    find_perfect_deleted_point(warm, np.zeros(2), hp)  # JIT warmup
    sizes = (10**3, 10**4, 10**5)
    times = []
    for n in sizes:
        ds = Dataset.from_arrays(rng.normal(size=(n, 2)), rng.normal(size=n))
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            find_perfect_deleted_point(ds, np.zeros(2), hp)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    A = np.vstack([sizes, np.ones(3)]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(times), rcond=None)
    pred = A @ coef
    ss_res = float(((times - pred) ** 2).sum())
    ss_tot = float(((times - np.mean(times)) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.99
    _report(10, f"times {['%.1fms' % (t * 1e3) for t in times]}, "
                f"linear fit R^2 = {r2:.5f}")
