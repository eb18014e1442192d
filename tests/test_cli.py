import json
import shutil
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import chi2, norm

from delpoint import (
    HyperParams,
    find_perfect_deleted_point,
    load_csv,
    privacy_floor,
    save_csv,
    selection_to_json,
)
from delpoint.bounds import bounds_arrays
from delpoint.cli import main
from delpoint.snr import scan_arrays

from conftest import tuned_dataset
from _oracles import (bounds_calc, json_doc_indent2, privacy_floor_calc,
                      risk_loop, snr_by_deletion)


@pytest.fixture
def runner():
    return CliRunner()


def gen_dataset(runner, tmp_path, *extra):
    out = tmp_path / "gen"
    res = runner.invoke(main, ["gen", "--out", str(out), *extra])
    assert res.exit_code == 0, res.output
    return out / "dataset.csv"


class TestGen:
    def test_default_writes_200_rows(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,y"
        assert len(lines) == 201
        assert (tmp_path / "gen" / "manifest.json").exists()

    def test_zero_noise_scale_exact_line(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path, "--noise-scale", "0")
        ds = load_csv(path)
        np.testing.assert_allclose(ds.y, 3.1415926535 * ds.X[:, 0], rtol=1e-12)

    def test_same_seed_identical_bytes(self, runner, tmp_path):
        a = gen_dataset(runner, tmp_path / "a", "--seed", "7")
        b = gen_dataset(runner, tmp_path / "b", "--seed", "7")
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_fields(self, runner, tmp_path):
        gen_dataset(runner, tmp_path, "--seed", "3")
        doc = json.loads((tmp_path / "gen" / "manifest.json").read_text())
        assert doc["command"] == "gen"
        assert doc["seed"] == 3
        assert doc["config"]["n"] == 200
        assert "dataset.csv" in doc["artifacts"]
        assert "tool_version" in doc and "wall_time_s" in doc


class TestSelect:
    def test_exit_zero_and_index_when_present(self, runner, tmp_path):
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01)
        ds = tuned_dataset(np.random.default_rng(3), hp,
                           [2 * 2.3263478740408408], np.array([0.4]))
        path = tmp_path / "tuned.csv"
        save_csv(ds, path)
        res = runner.invoke(main, ["select", "--dataset", str(path),
                                   "--w0", "0.4"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["best"]["index"] == 0
        assert doc["best"]["distance"] <= 1e-9

    def test_exit_three_when_absent(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        res = runner.invoke(main, ["select", "--dataset", str(path),
                                   "--delta", "0"])
        assert res.exit_code == 3
        doc = json.loads(res.output)
        assert doc["best"] is None

    def test_output_matches_library_bytes(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        res = runner.invoke(main, ["select", "--dataset", str(path)])
        assert res.exit_code == 0
        ds = load_csv(path)
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=100.0)
        expected = selection_to_json(
            find_perfect_deleted_point(ds, np.zeros(1), hp))
        assert res.output == expected

    def test_scores_csv_written(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        scores = tmp_path / "scores.csv"
        res = runner.invoke(main, ["select", "--dataset", str(path),
                                   "--scores-csv", str(scores)])
        assert res.exit_code == 0
        lines = scores.read_text().splitlines()
        assert lines[0] == "index,d_v,eps_v,advantage,feature_norm"
        assert len(lines) == 201

    def test_scores_csv_agrees_with_selection_json(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path, "--n", "300",
                           "--extra-features", "2", "--seed", "11")
        scores_csv = tmp_path / "scores.csv"
        for tie_break in ("norm-first", "paper"):
            out = tmp_path / tie_break
            res = runner.invoke(main, ["select", "--dataset", str(path),
                                       "--w0", "2.9,0.1,-0.4",
                                       "--tie-break", tie_break,
                                       "--scores-csv", str(scores_csv),
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            doc = json.loads((out / "selection.json").read_text())
            lines = scores_csv.read_text().splitlines()
            header = lines[0].split(",")
            assert header == ["index", "d_v", "eps_v", "advantage",
                              "feature_norm"]
            assert len(lines) == 1 + len(doc["scores"]) == 301
            for line, entry in zip(lines[1:], doc["scores"]):
                index, *values = line.split(",")
                assert int(index) == entry["index"]
                for key, text in zip(header[1:], values):
                    assert float(text) == entry[key]
            assert doc["best"] == doc["scores"][doc["best"]["index"]]

    def test_malformed_input_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        res = runner.invoke(main, ["select", "--dataset", str(bad)])
        assert res.exit_code == 2

    def test_w0_dimension_mismatch_exits_two(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        res = runner.invoke(main, ["select", "--dataset", str(path),
                                   "--w0", "1,2,3"])
        assert res.exit_code == 2


class TestBounds:
    def test_row_schema_and_floor(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        res = runner.invoke(main, ["bounds", "--dataset", str(path)])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["format_version"] == 1
        assert len(doc["rows"]) == 200
        keys = {"index", "lower", "upper", "actual_delta",
                "contained_A", "contained_B", "privacy_floor"}
        for row in doc["rows"]:
            assert set(row) == keys
            assert isinstance(row["contained_A"], bool)
            assert isinstance(row["contained_B"], bool)
            assert row["privacy_floor"] >= 0.0

    def test_floor_matches_library(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        res = runner.invoke(main, ["bounds", "--dataset", str(path)])
        doc = json.loads(res.output)
        ds = load_csv(path)
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01)
        eps = scan_arrays(ds, np.zeros(1), hp)["eps_v"]
        for pos, row in enumerate(doc["rows"]):
            assert row["privacy_floor"] == pytest.approx(
                privacy_floor(float(eps[pos]), 0.01), abs=1e-12)

    def test_zero_eps_row_has_zero_floor(self, runner, tmp_path):
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01)
        ds = tuned_dataset(np.random.default_rng(3), hp,
                           [2 * 2.3263478740408408], np.array([0.4]))
        path = tmp_path / "tuned.csv"
        save_csv(ds, path)
        res = runner.invoke(main, ["bounds", "--dataset", str(path),
                                   "--w0", "0.4"])
        doc = json.loads(res.output)
        assert doc["rows"][0]["privacy_floor"] == 0.0

    def test_rows_match_oracles_both_variants(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path, "--n", "300",
                           "--extra-features", "2", "--seed", "11")
        ds = load_csv(path)
        xs, ys = ds.X.tolist(), ds.y.tolist()
        n, w = len(ys), [2.9, 0.1, 0.1]
        gamma, sigma, alpha = 0.01, 2.0, 0.05
        target = 2.0 * norm.ppf(1.0 - alpha)
        eps = [snr_by_deletion(xs, ys, i, w, gamma, sigma) - target
               for i in range(n)]
        l0 = risk_loop(w, xs, ys)
        actual = [risk_loop(w, xs[:i] + xs[i + 1:], ys[:i] + ys[i + 1:]) - l0
                  for i in range(n)]
        abs_resid = [(l0 - abs(y - sum(a * b for a, b in zip(w, x)))) / (n - 1)
                     for x, y in zip(xs, ys)]
        b_floor = 0.5 * float(np.linalg.norm(ds.X, axis=1).min())
        floors = [privacy_floor_calc(e, alpha) for e in eps]
        assert any(f > 0.0 for f in floors)
        for extra, b in (([], None), (["--b-floor", repr(b_floor)], b_floor)):
            res = runner.invoke(main, ["bounds", "--dataset", str(path),
                                       "--alpha", str(alpha),
                                       "--w0", "2.9,0.1,0.1", *extra])
            assert res.exit_code == 0, res.output
            rows = json.loads(res.output)["rows"]
            assert [r["index"] for r in rows] == list(range(n))
            for i, row in enumerate(rows):
                lo, hi, _ = bounds_calc(xs, ys, i, w, gamma, sigma, alpha,
                                        eps[i], b=b)
                assert row["lower"] == pytest.approx(lo, abs=1e-9)
                assert row["upper"] == pytest.approx(hi, abs=1e-9)
                assert row["actual_delta"] == pytest.approx(actual[i],
                                                            abs=1e-8)
                assert row["privacy_floor"] == pytest.approx(floors[i],
                                                             abs=1e-9)
                for key, value in (("contained_A", actual[i]),
                                   ("contained_B", abs_resid[i])):
                    if min(abs(value - lo), abs(value - hi)) > 1e-8:
                        assert row[key] == (lo <= value <= hi)

    def test_payload_matches_indent2_oracle(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path, "--n", "300",
                           "--extra-features", "2", "--seed", "11")
        ds = load_csv(path)
        w = np.array([2.9, 0.1, 0.1])
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.05)
        a = scan_arrays(ds, w, hp)
        names = ["index", "lower", "upper", "actual_delta", "contained_A",
                 "contained_B", "privacy_floor"]
        for extra, b in (([], None), (["--b-floor", "0.5"], 0.5)):
            res = runner.invoke(main, ["bounds", "--dataset", str(path),
                                       "--alpha", "0.05",
                                       "--w0", "2.9,0.1,0.1", *extra])
            assert res.exit_code == 0, res.output
            cols = bounds_arrays(ds, w, hp, a["eps_v"], b=b)
            assert set(cols["contained_a"].tolist()) == {True, False}
            columns = [a["ids"], cols["lower"], cols["upper"],
                       cols["actual_delta"], cols["contained_a"],
                       cols["contained_b"], cols["privacy_floor"]]
            assert res.output == json_doc_indent2(
                {"format_version": 1, "target": a["target"]}, "rows", names,
                columns)

    def test_zero_feature_vector_exits_two_naming_point(self, runner,
                                                        tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("x0,x1,y\n1.0,2.0,3.0\n0.0,0.0,1.0\n2.0,1.0,4.0\n")
        out = tmp_path / "out"
        res = runner.invoke(main, ["bounds", "--dataset", str(path),
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert "point id 1 has a zero feature vector" in res.stderr
        assert not (out / "bounds.json").exists()
        res = runner.invoke(main, ["bounds", "--dataset", str(path),
                                   "--b-floor", "0.5"])
        assert res.exit_code == 2
        assert "(point id 1)" in res.stderr


OVERFLOW_ARGS = {
    "select": ["select"],
    "bounds": ["bounds"],
    "simulate-no-delete": ["simulate", "--protocol", "no-delete",
                           "--steps", "2", "--iterations", "2"],
    "simulate-random-delete": ["simulate", "--protocol", "random-delete",
                               "--steps", "2", "--iterations", "2"],
}


@pytest.mark.parametrize("command", list(OVERFLOW_ARGS))
def test_overflow_exits_four_without_warning(runner, tmp_path, command):
    # the first moments overflow when loaded; the second are finite, but
    # the scan's squared norms overflow, and so does s_xx @ w in the
    # second SGD step
    args = OVERFLOW_ARGS[command]
    if args[0] == "simulate":
        args = args + ["--out", str(tmp_path / "out")]
    for rows in ("1e200,1.0\n2.0,3.0\n3.0,4.0\n",
                 "1e100,1e100\n2e100,1e100\n1e100,3e100\n"):
        path = tmp_path / "big.csv"
        path.write_text("x0,y\n" + rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, [*args, "--dataset", str(path)])
        assert res.exit_code == 4, res.output
        assert "overflow" in res.stderr
        assert "numeric error" in res.stderr
        # an uncaught exception would be a traceback, not SystemExit
        assert isinstance(res.exception, SystemExit)
        assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", ["select", "bounds", "simulate"])
def test_non_utf8_dataset_exits_two(runner, tmp_path, command):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x0,y\n1.0,2.0\n\xff,3.0\n")
    args = [command, "--dataset", str(path)]
    if command == "simulate":
        args += ["--protocol", "no-delete", "--out", str(tmp_path / "out")]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: {path}: not UTF-8 text")
    # an uncaught exception would be a traceback, not SystemExit
    assert isinstance(res.exception, SystemExit)


HYPER_ARGS = ["--gamma", "0.02", "--sigma", "1.5", "--alpha", "0.05",
              "--delta", "50", "--w0", "0.5", "--seed", "9",
              "--snr-convention", "consistent"]
HYPER_CONFIG = [("gamma", 0.02), ("sigma", 1.5), ("alpha", 0.05),
                ("delta", 50.0), ("w0", [0.5])]
MANIFEST_KEYS = ["format_version", "command", "config", "seed", "artifacts",
                 "tool_version", "wall_time_s"]


def test_manifest_config_keys_and_order(runner, tmp_path):
    path = gen_dataset(runner, tmp_path)
    dataset = [("dataset", str(path))]
    sim = [("protocol", "perfect_delete"), ("steps", 2), ("iterations", 3),
           ("bins", 4)]
    cases = {
        "select": (["--tie-break", "paper"],
                   dataset + HYPER_CONFIG + [("snr_convention", "consistent"),
                                             ("tie_break", "paper")],
                   ["selection.json"]),
        "bounds": (["--b-floor", "0.005"],
                   dataset + HYPER_CONFIG + [("snr_convention", "consistent"),
                                             ("b_floor", 0.005)],
                   ["bounds.json"]),
        "simulate": (["--protocol", "perfect-delete", "--steps", "2",
                      "--iterations", "3", "--bins", "4",
                      "--tie-break", "paper"],
                     dataset + sim + HYPER_CONFIG
                     + [("seed", 9), ("snr_convention", "consistent"),
                        ("tie_break", "paper")],
                     ["weights.csv", "summary.json"]),
    }
    for command, (extra, config, artifacts) in cases.items():
        out = tmp_path / command
        res = runner.invoke(main, [command, "--dataset", str(path),
                                   *HYPER_ARGS, *extra, "--out", str(out)])
        assert res.exit_code in (0, 3), res.output
        doc = json.loads((out / "manifest.json").read_text())
        assert list(doc) == MANIFEST_KEYS
        assert (doc["command"], doc["seed"]) == (command, 9)
        assert list(doc["config"].items()) == config
        assert doc["artifacts"] == artifacts
        if command == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            assert list(summary["config"].items()) == config


@pytest.mark.parametrize("command", ["select", "bounds", "simulate"])
def test_reruns_write_identical_artifacts(runner, tmp_path, command):
    path = gen_dataset(runner, tmp_path)
    run = tmp_path / "run"
    extra = {"select": ["--scores-csv", str(run / "scores.csv")],
             "bounds": [],
             "simulate": ["--protocol", "perfect-delete", "--steps", "3",
                          "--iterations", "4"]}[command]
    runs = []
    for _ in range(2):
        run.mkdir()
        res = runner.invoke(main, [command, "--dataset", str(path),
                                   *HYPER_ARGS, *extra,
                                   "--out", str(run / "out")])
        assert res.exit_code == 0, res.output
        files = {f.relative_to(run).as_posix(): f.read_bytes()
                 for f in sorted(run.rglob("*")) if f.is_file()}
        manifest = json.loads(files.pop("out/manifest.json"))
        assert manifest.pop("wall_time_s") >= 0.0
        runs.append((res.output, files, manifest))
        shutil.rmtree(run)
    assert len(runs[0][1]) == (2 if command != "bounds" else 1)
    assert runs[0] == runs[1]


class TestSimulate:
    def test_one_step_variance_band(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        out = tmp_path / "sim"
        res = runner.invoke(main, ["simulate", "--dataset", str(path),
                                   "--protocol", "no-delete", "--steps", "1",
                                   "--iterations", "100", "--out", str(out)])
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "summary.json").read_text())
        v = doc["variance"][0]
        base = (0.01 * 2.0) ** 2
        assert base * chi2.ppf(0.005, 99) / 99 <= v <= \
            base * chi2.ppf(0.995, 99) / 99
        weights = (out / "weights.csv").read_text().splitlines()
        assert weights[0] == "iteration,w0"
        assert len(weights) == 101

    def test_deterministic_without_noise(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            res = runner.invoke(main, ["simulate", "--dataset", str(path),
                                       "--protocol", "no-delete",
                                       "--sigma", "0", "--iterations", "1",
                                       "--steps", "3", "--out", str(out)])
            assert res.exit_code == 0, res.output
            outs.append((out / "weights.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_paired_seeds_share_noise_draws(self, runner, tmp_path):
        # delta=0 degrades every perfect step to no deletion; identical
        # noise streams then make the two protocols byte-identical
        path = gen_dataset(runner, tmp_path)
        weights = {}
        for proto, name in (("perfect-delete", "p"), ("no-delete", "n")):
            out = tmp_path / name
            res = runner.invoke(main, ["simulate", "--dataset", str(path),
                                       "--protocol", proto, "--steps", "2",
                                       "--iterations", "10", "--delta", "0",
                                       "--seed", "21", "--out", str(out)])
            assert res.exit_code == 0, res.output
            weights[name] = (out / "weights.csv").read_bytes()
        assert weights["p"] == weights["n"]
        doc = json.loads((tmp_path / "p" / "summary.json").read_text())
        assert all(e is None for log in doc["deletions_log"] for e in log)

    def test_jobs_do_not_change_results(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        blobs = []
        for jobs, name in (("1", "j1"), ("2", "j2")):
            out = tmp_path / name
            res = runner.invoke(main, ["simulate", "--dataset", str(path),
                                       "--protocol", "random-delete",
                                       "--steps", "3", "--iterations", "8",
                                       "--jobs", jobs, "--seed", "5",
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            blobs.append((out / "weights.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestReport:
    def _simulate(self, runner, tmp_path, proto, steps, name):
        path = gen_dataset(runner, tmp_path / f"g{name}")
        out = tmp_path / name
        res = runner.invoke(main, ["simulate", "--dataset", str(path),
                                   "--protocol", proto, "--steps", str(steps),
                                   "--iterations", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        return out / "summary.json"

    def test_single_summary_single_row(self, runner, tmp_path):
        s = self._simulate(runner, tmp_path, "no-delete", 1, "a")
        res = runner.invoke(main, ["report", str(s)])
        assert res.exit_code == 0, res.output
        lines = res.output.splitlines()
        assert len(lines) == 3  # header, separator, one row
        assert lines[0].startswith("| steps | protocol |")

    def test_rows_sorted_and_round_trip(self, runner, tmp_path):
        s1 = self._simulate(runner, tmp_path, "no-delete", 10, "a")
        s2 = self._simulate(runner, tmp_path, "random-delete", 1, "b")
        s3 = self._simulate(runner, tmp_path, "no-delete", 1, "c")
        res = runner.invoke(main, ["report", str(s1), str(s2), str(s3)])
        rows = [r for r in res.output.splitlines()[2:]]
        cells = [[c.strip() for c in r.strip("|").split("|")] for r in rows]
        assert [(int(c[0]), c[1]) for c in cells] == [
            (1, "no_delete"), (1, "random_delete"), (10, "no_delete")]
        doc = json.loads(s3.read_text())
        assert float(cells[0][2]) == doc["mean"][0]
        assert float(cells[0][3]) == doc["variance"][0]

    def test_out_dir_gets_report_and_manifest(self, runner, tmp_path):
        s = self._simulate(runner, tmp_path, "no-delete", 1, "a")
        out = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(s), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "report.md").read_text() == res.output
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "report"
        assert doc["artifacts"] == ["report.md"]
