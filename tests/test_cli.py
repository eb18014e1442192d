import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import chi2, norm

from delpoint import (
    HyperParams,
    StepConfig,
    advantage_target,
    find_perfect_deleted_point,
    load_csv,
    make_rng,
    membership_advantage,
    privacy_floor,
    run_protocol,
    save_csv,
)
from delpoint import core, gauss, snr
from delpoint.bounds import bounds_arrays
from delpoint.cli import (_SCORES_CSV_HEADER, _SELECTION_COLUMNS,
                          _selection_chunks, main)
from delpoint.snr import scan_arrays, snr_denominator

from conftest import random_dataset, tuned_dataset
from _oracles import (bounds_calc, csv_writer_text, json_doc_indent2,
                      privacy_floor_calc, risk_loop, selection_doc_indent2,
                      selection_doc_v1, snr_by_deletion, summary_doc)


@pytest.fixture
def runner():
    return CliRunner()


def gen_dataset(runner, tmp_path, *extra):
    out = tmp_path / "gen"
    res = runner.invoke(main, ["gen", "--out", str(out), *extra])
    assert res.exit_code == 0, res.output
    return out / "dataset.csv"


def selection_head(text):
    """What select prints: the selection.json ``text`` without its scores,
    as json.dumps writes it with indent=2."""
    doc = json.loads(text)
    del doc["scores"]
    return json.dumps(doc, indent=2) + "\n"


class TestGen:
    def test_default_writes_200_rows(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,y"
        assert len(lines) == 201
        assert (tmp_path / "gen" / "manifest.json").exists()

    def test_same_seed_identical_bytes(self, runner, tmp_path):
        a = gen_dataset(runner, tmp_path / "a", "--seed", "7")
        b = gen_dataset(runner, tmp_path / "b", "--seed", "7")
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_fields(self, runner, tmp_path):
        gen_dataset(runner, tmp_path, "--seed", "3")
        doc = json.loads((tmp_path / "gen" / "manifest.json").read_text())
        assert list(doc) == MANIFEST_KEYS
        assert doc["command"] == "gen"
        assert (doc["config"]["seed"], doc["config"]["n"]) == (3, 200)
        assert "dataset.csv" in doc["artifacts"]


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
        assert abs(doc["best"]["eps_v"]) <= 1e-9

    def test_exit_three_when_absent(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        res = runner.invoke(main, ["select", "--dataset", str(path),
                                   "--delta", "0"])
        assert res.exit_code == 3
        doc = json.loads(res.output)
        assert doc["best"] is None

    def test_output_matches_library_bytes(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["select", "--dataset", str(path),
                                   "--out", str(out)])
        assert res.exit_code == 0
        ds = load_csv(path)
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=100.0)
        result = find_perfect_deleted_point(ds, np.zeros(1), hp)
        text = (out / "selection.json").read_text()
        assert text == "".join(_selection_chunks(result))
        assert text == selection_doc_indent2(result)
        assert res.output == selection_head(selection_doc_indent2(result))

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
            # the columns both files write; the advantage is the CSV's
            shared = [key for key in header if key in _SELECTION_COLUMNS]
            assert shared == list(_SELECTION_COLUMNS)
            for line, entry in zip(lines[1:], doc["scores"]):
                assert list(entry) == shared
                row = dict(zip(header, line.split(",")))
                assert int(row["index"]) == entry["index"]
                for key in shared[1:]:
                    assert float(row[key]) == entry[key]
            assert doc["best"] == doc["scores"][doc["best"]["index"]]

    def test_stdout_is_the_written_files_head(self, runner, tmp_path,
                                              monkeypatch):
        # blocks of 7 rows: the file's 200 rows are written in 29 pieces,
        # and stdout carries the document without them
        monkeypatch.setattr(core, "_CHUNK_ROWS", 7)
        path = gen_dataset(runner, tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["select", "--dataset", str(path),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = (out / "selection.json").read_text()
        assert len(json.loads(text)["scores"]) == 200
        assert res.stdout_bytes == selection_head(text).encode()

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


def _bits(value):
    """A JSON value with a float as its IEEE bytes, so -0.0, NaN and the
    int 0 are told apart from 0.0."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def assert_v2_is_v1(v1_text, v2_text, scores_csv):
    """Format 2 holds the values of format 1 less its two derived columns:
    a row's distance is abs(eps_v), bit for bit, and its advantage is the
    --scores-csv column of that name."""
    v1, v2 = json.loads(v1_text), json.loads(v2_text)
    assert (v1["format_version"], v2["format_version"]) == (1, 2)
    assert _bits(v1["target"]) == _bits(v2["target"])
    lines = scores_csv.read_text().splitlines()
    header = lines[0].split(",")
    advantage = [float(line.split(",")[header.index("advantage")])
                 for line in lines[1:]]
    assert len(v1["scores"]) == len(v2["scores"]) == len(advantage)
    rows = list(zip(v1["scores"], v2["scores"], advantage))
    assert (v1["best"] is None) == (v2["best"] is None)
    if v1["best"] is not None:
        rows.append((v1["best"], v2["best"], advantage[v2["best"]["index"]]))
    for old, new, adv in rows:
        distance = old.pop("distance")
        assert _bits(old.pop("advantage")) == _bits(adv)
        assert list(old) == list(new) == list(_SELECTION_COLUMNS)
        assert {k: _bits(v) for k, v in old.items()} == {
            k: _bits(v) for k, v in new.items()}
        assert _bits(abs(new["eps_v"])) == _bits(distance)


class TestSelectionFormats:
    """selection.json format 2 against format 1, and the Phi it skips."""

    def test_select_evaluates_no_phi(self, runner, tmp_path, monkeypatch):
        path = gen_dataset(runner, tmp_path)
        scores_csv = tmp_path / "scores.csv"
        args = ["select", "--dataset", str(path), "--out"]

        def no_phi(*_):
            raise AssertionError("phi evaluated")

        with monkeypatch.context() as patch:
            for module in (gauss, snr):
                patch.setattr(module, "phi", no_phi)
            res = runner.invoke(main, [*args, str(tmp_path / "a")])
            assert res.exit_code == 0, res.output
            doc = json.loads((tmp_path / "a" / "selection.json").read_text())
            assert doc["format_version"] == 2
            assert list(doc["best"]) == list(_SELECTION_COLUMNS)
            # the patch is on the path that --scores-csv takes
            res = runner.invoke(main, [*args, str(tmp_path / "b"),
                                       "--scores-csv", str(scores_csv)])
            assert isinstance(res.exception, AssertionError)
        res = runner.invoke(main, [*args, str(tmp_path / "c"),
                                   "--scores-csv", str(scores_csv)])
        assert res.exit_code == 0, res.output
        assert ((tmp_path / "c" / "selection.json").read_bytes()
                == (tmp_path / "a" / "selection.json").read_bytes())
        header, *lines = scores_csv.read_text().splitlines()
        assert header == "index,d_v,eps_v,advantage,feature_norm"
        # the d_v and advantage columns
        d_v, adv = np.array([[float(v) for v in line.split(",")[1:4:2]]
                             for line in lines]).T
        assert d_v.tolist() == [row["d_v"] for row in doc["scores"]]
        assert adv.tolist() == membership_advantage(d_v, 0.01).tolist()

    @pytest.mark.parametrize("extra, code", [([], 0), (["--delta", "0"], 3)],
                             ids=["best", "none"])
    def test_select_without_files_encodes_no_row(self, runner, tmp_path,
                                                 monkeypatch, extra, code):
        path = gen_dataset(runner, tmp_path)
        args = ["select", "--dataset", str(path), *extra]
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "a")])
        assert res.exit_code == code, res.output
        head = selection_head((tmp_path / "a" / "selection.json").read_text())

        def no_rows(*_):
            raise AssertionError("rows encoded")

        monkeypatch.setattr(core, "_row_blocks", no_rows)
        res = runner.invoke(main, args)
        assert res.exit_code == code, res.output
        assert res.stdout_bytes == head.encode()
        assert (json.loads(head)["best"] is None) == (code == 3)
        # the patch is on the path that --out takes, and the head follows
        # the files, so a run that fails to write them prints nothing
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "b")])
        assert isinstance(res.exception, AssertionError)
        assert res.stdout_bytes == b""

    @pytest.mark.parametrize("tie_break", ["norm-first", "paper"])
    def test_random_datasets_equal_v1(self, runner, tmp_path, tie_break):
        rng = np.random.default_rng(35)
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.05)
        for trial in range(8):
            ds = random_dataset(rng)
            X, y = ds.X, ds.y
            if trial % 2:
                # a duplicated point: a tie that the tie-break decides
                X, y = np.vstack([X, X[:1]]), np.append(y, y[0])
            path = tmp_path / f"{trial}.csv"
            save_csv(core.Dataset.from_arrays(X, y), path)
            w = rng.normal(size=X.shape[1])
            out, scores_csv = tmp_path / f"out{trial}", tmp_path / "s.csv"
            res = runner.invoke(main, [
                "select", "--dataset", str(path), "--alpha", "0.05",
                "--w0", ",".join(map(repr, w.tolist())),
                "--tie-break", tie_break, "--scores-csv", str(scores_csv),
                "--out", str(out)])
            assert res.exit_code in (0, 3), res.output
            result = find_perfect_deleted_point(load_csv(path), w, hp,
                                                tie_break=tie_break)
            assert (res.exit_code == 3) == (result["best"] is None)
            v1 = selection_doc_v1(result, membership_advantage(
                result["d_v"], hp.alpha))
            assert_v2_is_v1(v1, (out / "selection.json").read_text(),
                            scores_csv)

    def test_hand_built_columns_equal_v1(self, tmp_path):
        # signed zeros, NaN, subnormals, infinities and exponent forms
        eps = np.array([-2.5e-07, 1e-05, -0.0, 0.0, -1e+16, -5e-324,
                        5e-324, np.nan, -np.inf, 3.5, 1e+16])
        n = eps.size
        result = {"index": np.arange(n), "d_v": eps + 4.0, "eps_v": eps,
                  "distance": np.abs(eps),
                  "advantage": np.array([5e-324, 1e-05, 0.0, 0.25, 1e-300,
                                         0.01, 0.5, np.nan, 2.5e-07, 0.1,
                                         0.0]),
                  "feature_norm": np.linspace(0.5, 1.0, n),
                  "target": 4.0}
        scores_csv = tmp_path / "scores.csv"
        core._write_csv(scores_csv, _SCORES_CSV_HEADER,
                        [result[key] for key in _SCORES_CSV_HEADER])
        for best in (None, 2, 5, 7):
            result["best"] = best
            v2 = "".join(_selection_chunks(result))
            assert v2 == selection_doc_indent2(result)
            assert_v2_is_v1(selection_doc_v1(result, result["advantage"]),
                            v2, scores_csv)


class TestBounds:
    def test_row_schema_and_floor(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path)
        res = runner.invoke(main, ["bounds", "--dataset", str(path)])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["format_version"] == 2
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

    def test_interval_is_the_same_under_both_conventions(self, runner,
                                                         tmp_path):
        # the interval is in the scan's numerator units; only eps_v, and
        # so the privacy floor, depends on the SNR convention
        path = gen_dataset(runner, tmp_path, "--extra-features", "2")
        for extra in ([], ["--b-floor", "0.001"]):
            rows = {}
            for convention in ("paper", "consistent"):
                res = runner.invoke(main, ["bounds", "--dataset", str(path),
                                           "--snr-convention", convention,
                                           *extra])
                assert res.exit_code == 0, res.output
                rows[convention] = json.loads(res.output)["rows"]
            paper, consistent = rows["paper"], rows["consistent"]
            for key in ("lower", "upper", "actual_delta", "contained_A",
                        "contained_B"):
                assert ([row[key] for row in paper]
                        == [row[key] for row in consistent]), key
            assert ([row["privacy_floor"] for row in paper]
                    != [row["privacy_floor"] for row in consistent])

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
                lo, hi = bounds_calc(xs, ys, i, w, gamma, sigma, alpha,
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
            cols = bounds_arrays(a, hp.alpha, b=b)
            assert set(cols["contained_a"].tolist()) == {True, False}
            columns = [a["index"], cols["lower"], cols["upper"],
                       cols["actual_delta"], cols["contained_a"],
                       cols["contained_b"], cols["privacy_floor"]]
            assert res.output == json_doc_indent2(
                {"format_version": 2, "target": a["target"]}, "rows", names,
                columns)

    def test_stdout_equals_written_file(self, runner, tmp_path,
                                        monkeypatch):
        monkeypatch.setattr(core, "_CHUNK_ROWS", 7)
        path = gen_dataset(runner, tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["bounds", "--dataset", str(path),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.stdout_bytes == (out / "bounds.json").read_bytes()

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


N_CHUNKED = 9


@pytest.fixture(params=[1, 2, 7, N_CHUNKED - 1, N_CHUNKED, N_CHUNKED + 1],
                ids=["1", "2", "7", "n-1", "n", "n+1"])
def chunk_rows(request, monkeypatch):
    """The row writers set to blocks of this many rows; N_CHUNKED rows."""
    monkeypatch.setattr(core, "_CHUNK_ROWS", request.param)
    return request.param


class TestChunkBoundaries:
    """Any block size writes the bytes of the whole-document oracles."""

    @staticmethod
    def selection_result():
        # exponent-form, signed-zero and non-finite values; the distance
        # and advantage columns are the scan's and --scores-csv's, which
        # selection.json does not write
        eps = np.array([-2.5e-07, 1e-05, -0.0, 0.0, -1e+16, -5e-324,
                        -np.inf, 3.5, 0.1])
        scores = {"index": np.arange(N_CHUNKED), "d_v": eps + 4.0,
                  "eps_v": eps, "distance": np.abs(eps),
                  "advantage": np.full(N_CHUNKED, 0.25),
                  "feature_norm": np.linspace(0.5, 1.0, N_CHUNKED)}
        return scores | {"target": 4.0, "best": None}

    def test_selection_to_json(self, chunk_rows):
        result = self.selection_result()
        assert ("".join(_selection_chunks(result))
                == selection_doc_indent2(result))

    def test_write_scores_csv(self, chunk_rows, tmp_path):
        # the scan's checks keep every score finite: -inf becomes -1e+300
        result = self.selection_result()
        scores = {key: np.nan_to_num(result[key], neginf=-1e+300)
                  for key in _SCORES_CSV_HEADER}
        header = ["index", "d_v", "eps_v", "advantage", "feature_norm"]
        path = tmp_path / "scores.csv"
        core._write_csv(path, _SCORES_CSV_HEADER,
                        [scores[key] for key in _SCORES_CSV_HEADER])
        rows = [[repr(v) for v in row]
                for row in zip(*(scores[key].tolist() for key in header))]
        assert path.read_bytes() == csv_writer_text(header, rows).encode()

    def test_bounds_output(self, chunk_rows, runner, tmp_path):
        path = gen_dataset(runner, tmp_path, "--n", str(N_CHUNKED),
                           "--extra-features", "2", "--seed", "11")
        ds = load_csv(path)
        w = np.array([2.9, 0.1, 0.1])
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.05)
        a = scan_arrays(ds, w, hp)
        b = 0.5 * float(np.linalg.norm(ds.X, axis=1).min())
        names = ["index", "lower", "upper", "actual_delta", "contained_A",
                 "contained_B", "privacy_floor"]
        for extra, floor in (([], None), (["--b-floor", repr(b)], b)):
            res = runner.invoke(main, ["bounds", "--dataset", str(path),
                                       "--alpha", "0.05",
                                       "--w0", "2.9,0.1,0.1", *extra])
            assert res.exit_code == 0, res.output
            cols = bounds_arrays(a, hp.alpha, b=floor)
            columns = [a["index"], cols["lower"], cols["upper"],
                       cols["actual_delta"], cols["contained_a"],
                       cols["contained_b"], cols["privacy_floor"]]
            assert res.output == json_doc_indent2(
                {"format_version": 2, "target": a["target"]}, "rows", names,
                columns)

    def test_weights_csv(self, chunk_rows, runner, tmp_path):
        path = gen_dataset(runner, tmp_path, "--extra-features", "2")
        out = tmp_path / "sim"
        res = runner.invoke(main, ["simulate", "--dataset", str(path),
                                   "--protocol", "random-delete",
                                   "--steps", "2", "--iterations",
                                   str(N_CHUNKED), "--seed", "3",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        cfg = StepConfig(protocol="random_delete", steps=2,
                         iterations=N_CHUNKED, w0=np.zeros(3),
                         hp=HyperParams(gamma=0.01, sigma=2.0, alpha=0.01,
                                        seed=3))
        finals = run_protocol(cfg, load_csv(path)).final_weights
        rows = [[repr(i), *map(repr, w)]
                for i, w in enumerate(finals.tolist())]
        want = csv_writer_text(["iteration", "w0", "w1", "w2"], rows)
        assert (out / "weights.csv").read_bytes() == want.encode()


OVERFLOW_ARGS = {
    "select": ["select"],
    "bounds": ["bounds"],
    "simulate-perfect-delete": ["simulate", "--protocol", "perfect-delete",
                                "--steps", "2", "--iterations", "2"],
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


def test_summary_overflow_exits_four_without_warning(runner, tmp_path):
    path = gen_dataset(runner, tmp_path)
    cases = [
        # every final weight is finite, but their variance overflows
        (["--gamma", "1e-10", "--sigma", "1e300", "--steps", "2",
          "--iterations", "20"],
         "summary statistics of the final weights overflow float64"),
        # every final weight is 1e17: too few floats for 30 bins
        (["--sigma", "0", "--gamma", "0", "--w0", "1e17", "--steps", "1",
          "--iterations", "3"],
         "coordinate 0 of the final weights spans too few floats for 30 "
         "histogram bins"),
    ]
    for args, message in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, [
                "simulate", "--dataset", str(path), "--protocol", "no-delete",
                *args, "--out", str(tmp_path / "out")])
        assert res.exit_code == 4, res.output
        assert res.stderr == f"numeric error: {message}\n"
        assert isinstance(res.exception, SystemExit)
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "out").exists()


def test_perfect_delete_score_overflow_exits_four(runner, tmp_path):
    # finite moments and feature norms; the first scan's squared norms
    # overflow at every live point
    path = tmp_path / "big.csv"
    path.write_text("x0,y\n1e100,1e100\n2e100,1e100\n1e100,3e100\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, [*OVERFLOW_ARGS["simulate-perfect-delete"],
                                   "--dataset", str(path),
                                   "--out", str(tmp_path / "out")])
    assert res.exit_code == 4, res.output
    assert res.stderr.startswith(
        "numeric error: candidate scores overflow")
    assert isinstance(res.exception, SystemExit)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", ["select", "bounds",
                                     "simulate-perfect-delete"])
def test_underflowing_noise_exits_two_without_warning(runner, tmp_path,
                                                      command):
    # sqrt(gamma (n - 1) / 2) sigma is 0 in float64: the noise scale, not
    # the data, makes d_v undefined, as sigma = 0 does
    path = gen_dataset(runner, tmp_path, "--seed", "40")
    args = OVERFLOW_ARGS[command]
    if args[0] == "simulate":
        args = args + ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, [*args, "--dataset", str(path),
                                   "--gamma", "1e-300", "--sigma", "1e-300"])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: d_v is undefined")
    assert isinstance(res.exception, SystemExit)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command, code", [("select", 3), ("bounds", 0)])
def test_subnormal_gamma_runs_without_warning(runner, tmp_path, command,
                                              code):
    # gamma = 1e-320 makes every |eps_v| near 1e157: no point is within
    # delta, and the advantage and privacy floor take their limits
    path = gen_dataset(runner, tmp_path, "--seed", "40")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, [command, "--dataset", str(path),
                                   "--gamma", "1e-320"])
    assert (res.exit_code, res.stderr) == (code, ""), res.output
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", list(OVERFLOW_ARGS))
@pytest.mark.parametrize("alpha", ["1e-17", repr(2.0 ** -54)])
def test_tiny_alpha_names_alpha(runner, tmp_path, command, alpha):
    # 1 - alpha rounds to 1 at alpha <= 2^-54, but the target
    # -2 Phi_inv(alpha) comes from the lower tail: every command exits 0,
    # select and bounds write the finite target of the alpha passed, and
    # perfect-delete's first deletion is the point select picks at it
    path = gen_dataset(runner, tmp_path, "--seed", "40")
    args = OVERFLOW_ARGS[command]
    out = tmp_path / "out"
    if args[0] == "simulate":
        args = args + ["--out", str(out)]
    res = runner.invoke(main, [*args, "--dataset", str(path),
                               "--alpha", alpha])
    assert res.exit_code == 0, res.output
    target = advantage_target(float(alpha))
    assert math.isfinite(target)
    if args[0] != "simulate":
        assert json.loads(res.stdout)["target"] == target
        return
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["alpha"] == float(alpha)
    if command == "simulate-perfect-delete":
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=float(alpha))
        best = find_perfect_deleted_point(load_csv(path), [0.0], hp)["best"]
        assert [log[0] for log in summary["deletions_log"]] == [best] * 2


@pytest.mark.parametrize("command",
                         ["select", "bounds", "simulate-perfect-delete"])
def test_tiny_noise_overflow_names_the_noise_scale(runner, tmp_path,
                                                   command):
    # (n - 1) sigma / 2 = 199 * 5e-324 / 2 is subnormal but not 0, so every
    # finite score norm overflows when divided by it: exit 4, and the
    # message names the denominator and the noise scale, not the data
    path = gen_dataset(runner, tmp_path, "--seed", "40")
    args = OVERFLOW_ARGS[command]
    if args[0] == "simulate":
        args = args + ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, [*args, "--dataset", str(path),
                                   "--snr-convention", "consistent",
                                   "--gamma", "1", "--sigma", "5e-324"])
    assert res.exit_code == 4, res.output
    assert res.stderr == (
        "numeric error: candidate scores overflow: d_v is divided by "
        "4.94e-322, the denominator of the noise scale gamma = 1.0, "
        "sigma = 5e-324 (consistent convention)\n")
    assert isinstance(res.exception, SystemExit)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("option", ["--x-low", "--x-high", "--slope",
                                    "--noise-std", "--noise-scale"])
def test_gen_recipe_options_are_usage_errors(runner, tmp_path, option):
    # gen draws the reference recipe: its constants are not options
    res = runner.invoke(main, ["gen", option, "1",
                               "--out", str(tmp_path / "gen")])
    assert res.exit_code == 2, res.output
    assert res.stderr.splitlines()[-1].startswith("Error: No such option")
    assert option in res.stderr
    assert not (tmp_path / "gen").exists()


def _no_iteration(*args):
    raise AssertionError("an iteration ran")


@pytest.mark.parametrize("args, message", [
    (["select", "--dataset", "gen/dataset.csv", "--w0", "1,x"],
     "--w0 must be a comma-separated float list, got '1,x'"),
    (["bounds", "--dataset", "gen/dataset.csv", "--w0", "nan"],
     "weights must be finite"),
    (["simulate", "--dataset", "gen/dataset.csv", "--protocol", "no-delete",
      "--bins", "0", "--out", "sim"], "bins must be >= 1, got 0"),
    (["select", "--dataset", "empty.csv"], "empty.csv: empty file"),
    (["gen", "--extra-features", "-1", "--out", "neg"],
     "extra_features must be >= 0, got -1"),
    (["report", "gen/manifest.json"],
     "gen/manifest.json: not a simulate summary.json: 'steps'"),
    # an OSError: --out below a regular file
    (["bounds", "--dataset", "gen/dataset.csv", "--out", "gen/dataset.csv/b"],
     "[Errno 20] Not a directory: 'gen/dataset.csv/b'"),
], ids=["w0-not-float", "w0-nan", "zero-bins", "empty-file",
        "negative-extra-features", "report-not-summary", "out-below-file"])
def test_invalid_input_exits_two(runner, tmp_path, monkeypatch, args,
                                 message):
    monkeypatch.chdir(tmp_path)
    gen_dataset(runner, tmp_path)
    (tmp_path / "empty.csv").write_bytes(b"")
    # every simulated iteration runs in a block of _run_block
    monkeypatch.setattr("delpoint.sim._run_block", _no_iteration)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.stderr == f"error: {message}\n"
    # an uncaught exception would be a traceback, not SystemExit
    assert isinstance(res.exception, SystemExit)
    assert sorted(os.listdir(tmp_path)) == ["empty.csv", "gen"]


def test_usage_errors_and_help_stay_clicks(runner):
    # the exit codes are mapped after click has parsed the options
    res = runner.invoke(main, ["select", "--help"])
    assert res.exit_code == 0
    assert res.output.startswith("Usage: main select [OPTIONS]")
    res = runner.invoke(main, ["select", "--bogus"])
    assert res.exit_code == 2
    assert "\nError: No such option '--bogus'" in res.stderr


TINY_ROWS = {1e-200: "x0,y\n1e-200,1.0\n2.0,3.0\n3.0,4.0\n",
             math.sqrt(10.0) * 1e-200:
             "x0,x1,y\n1e-200,3e-200,1.0\n2.0,1.0,3.0\n3.0,0.5,4.0\n"}


@pytest.mark.parametrize("norm", list(TINY_ROWS))
def test_select_reports_tiny_feature_norm(runner, tmp_path, norm):
    # the squares of the first row underflow to 0 without rescaling
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_ROWS[norm])
    out = tmp_path / "out"
    res = runner.invoke(main, ["select", "--dataset", str(path),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads((out / "selection.json").read_text())
    assert doc["scores"][0]["feature_norm"] == norm


@pytest.mark.parametrize("norm", list(TINY_ROWS))
def test_bounds_accepts_tiny_feature_norm(runner, tmp_path, norm):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_ROWS[norm])
    res = runner.invoke(main, ["bounds", "--dataset", str(path)])
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["rows"]
    assert len(rows) == 3
    for row in rows:
        for key in ("lower", "upper", "actual_delta", "privacy_floor"):
            assert math.isfinite(row[key]), (row["index"], key)


@pytest.mark.parametrize("case", ["risk", "b-floor"])
def test_bounds_overflow_exits_four_without_warning(runner, tmp_path, case):
    # moments and scores are finite in both cases: the squared residuals
    # (1e155)^2 overflow in the empirical risk, or a valid subnormal
    # floor B = 1e-320 makes the interval constant sigma / B overflow
    if case == "risk":
        path = tmp_path / "big.csv"
        path.write_text("x0,y\n1e-10,1e155\n2e-10,1e155\n3e-10,3e155\n")
        extra = []
    else:
        path = gen_dataset(runner, tmp_path, "--seed", "40")
        extra = ["--b-floor", "1e-320"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(main, ["bounds", "--dataset", str(path), *extra])
    assert res.exit_code == 4, res.output
    assert "numeric error" in res.stderr
    assert isinstance(res.exception, SystemExit)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", ["select", "bounds", "simulate"])
def test_load_csv_hook_serves_preloaded_dataset(runner, tmp_path,
                                                monkeypatch, command):
    # the benchmark's probe times the library without the CSV parse by
    # replacing cli.load_csv; every dataset command reads through it
    path = gen_dataset(runner, tmp_path, "--n", "30", "--seed", "5")
    args = [command, "--dataset", str(path)]
    if command == "simulate":
        args += ["--protocol", "perfect-delete", "--steps", "2",
                 "--iterations", "3", "--out", str(tmp_path / "sim")]
    plain = runner.invoke(main, args)
    assert plain.exit_code == 0, plain.output
    files = [tmp_path / "sim" / name for name in ("weights.csv",
             "summary.json") if command == "simulate"]
    before = [f.read_bytes() for f in files]
    ds, calls = load_csv(path), []

    def served(p):
        calls.append(p)
        return ds

    monkeypatch.setattr("delpoint.cli.load_csv", served)
    hooked = runner.invoke(main, args)
    assert hooked.exit_code == 0, hooked.output
    assert calls == [path]
    assert hooked.stdout_bytes == plain.stdout_bytes
    assert [f.read_bytes() for f in files] == before


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
                ("delta", 50.0)]
MANIFEST_KEYS = ["format_version", "command", "config", "artifacts",
                 "tool_version"]


def test_manifest_config_keys_and_order(runner, tmp_path):
    # the manifest records the options as click parsed them, in the
    # command's order, and lists the files it wrote under --out, by their
    # names there; summary.json keeps its own config layout
    path = gen_dataset(runner, tmp_path)
    shared = ([("dataset", str(path))] + HYPER_CONFIG
              + [("w0", "0.5"), ("seed", 9), ("snr_convention", "consistent")])
    scores = tmp_path / "scores.csv"
    cases = {
        "select": (["--tie-break", "paper", "--scores-csv", str(scores)],
                   [("tie_break", "paper"), ("scores_csv", str(scores))],
                   ["selection.json"]),
        "bounds": (["--b-floor", "0.005"], [("b_floor", 0.005)],
                   ["bounds.json"]),
        "simulate": (["--protocol", "perfect-delete", "--steps", "2",
                      "--iterations", "3", "--bins", "4",
                      "--tie-break", "paper"],
                     [("protocol", "perfect-delete"), ("steps", 2),
                      ("iterations", 3), ("bins", 4), ("tie_break", "paper")],
                     ["weights.csv", "summary.json"]),
    }
    for command, (extra, config, artifacts) in cases.items():
        out = tmp_path / command
        res = runner.invoke(main, [command, "--dataset", str(path),
                                   *HYPER_ARGS, *extra, "--out", str(out)])
        assert res.exit_code in (0, 3), res.output
        doc = json.loads((out / "manifest.json").read_text())
        assert list(doc) == MANIFEST_KEYS
        assert doc["command"] == command
        assert list(doc["config"].items()) == \
            shared + config + [("out_dir", str(out))]
        assert doc["artifacts"] == artifacts
        assert sorted(artifacts + ["manifest.json"]) == sorted(
            os.listdir(out))
        if command == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            assert list(summary["config"].items()) == [
                ("dataset", str(path)), ("protocol", "perfect_delete"),
                ("steps", 2), ("iterations", 3), ("bins", 4), *HYPER_CONFIG,
                ("w0", [0.5]), ("seed", 9), ("snr_convention", "consistent"),
                ("tie_break", "paper")]


@pytest.mark.parametrize("command", list(main.commands))
def test_manifest_does_not_depend_on_argv_order(runner, tmp_path, command):
    # the same options typed in two orders write the same manifest bytes,
    # and its config lists every parameter of the command, in its order
    path = gen_dataset(runner, tmp_path, "--n", "30", "--extra-features", "1")
    summary = tmp_path / "sim" / "summary.json"
    res = runner.invoke(main, ["simulate", "--dataset", str(path),
                               "--protocol", "no-delete",
                               "--out", str(summary.parent)])
    assert res.exit_code == 0, res.output
    data = ["--dataset", str(path)]
    options = {
        "gen": [["--n", "30"], ["--seed", "5"], ["--extra-features", "1"]],
        "select": [data, ["--w0", "0.5,1"], ["--seed", "9"],
                   ["--tie-break", "paper"],
                   ["--scores-csv", str(tmp_path / "scores.csv")]],
        "bounds": [data, ["--b-floor", "0.001"], ["--alpha", "0.05"]],
        "simulate": [data, ["--protocol", "random-delete"], ["--steps", "2"],
                     ["--iterations", "3"], ["--snr-convention", "consistent"]],
        "report": [[str(summary), str(summary)], ["--seed", "4"]],
    }[command] + [["--out", str(tmp_path / "out")]]
    written = []
    for order in (options, options[::-1]):
        res = runner.invoke(main, [command, *sum(order, [])])
        assert res.exit_code == 0, res.output
        written.append((tmp_path / "out" / "manifest.json").read_bytes())
    assert written[0] == written[1]
    assert list(json.loads(written[0])["config"]) == \
        [p.name for p in main.commands[command].params]


@pytest.mark.parametrize("command", ["select", "bounds", "simulate"])
def test_reruns_write_identical_artifacts(runner, tmp_path, command):
    # the first run calls main in process, the second is a
    # `python -m delpoint.cli` process, whose entry is run()
    path = gen_dataset(runner, tmp_path)
    run = tmp_path / "run"
    extra = {"select": ["--scores-csv", str(run / "scores.csv")],
             "bounds": [],
             "simulate": ["--protocol", "perfect-delete", "--steps", "3",
                          "--iterations", "4"]}[command]
    args = [command, "--dataset", str(path), *HYPER_ARGS, *extra,
            "--out", str(run / "out")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = []
    for in_process in (True, False):
        run.mkdir()
        if in_process:
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
            output = res.output
        else:
            proc = subprocess.run([sys.executable, "-m", "delpoint.cli",
                                   *args], env=env, capture_output=True,
                                  encoding="utf-8", timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
            output = proc.stdout
        files = {f.relative_to(run).as_posix(): f.read_bytes()
                 for f in sorted(run.rglob("*")) if f.is_file()}
        runs.append((output, files))
        shutil.rmtree(run)
    assert len(runs[0][1]) == (3 if command != "bounds" else 2)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["select", "bounds"])
def test_closed_stdout_still_writes_out(runner, tmp_path, command):
    # `| head -c 100`: the reader goes after 100 bytes, of bounds'
    # document, far larger than a pipe buffer, or of select's head, about
    # 200 bytes, printed after its files.  --out still gets the whole
    # document and the manifest, with the exit code of a run it reads to
    # the end; without --out the command exits with that code too
    path = gen_dataset(runner, tmp_path, "--n", "2000")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    name = {"select": "selection.json", "bounds": "bounds.json"}[command]
    cmd = [sys.executable, "-m", "delpoint.cli", command, "--dataset",
           str(path)]
    whole = subprocess.run(cmd + ["--out", str(tmp_path / "whole")],
                           env=env, stdout=subprocess.DEVNULL, timeout=120)
    for out in (["--out", str(tmp_path / "cut")], []):
        proc = subprocess.Popen(cmd + out, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (whole.returncode, b"")
    docs = []
    for out in (tmp_path / "whole", tmp_path / "cut"):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"].pop("out_dir") == str(out)
        docs.append(((out / name).read_bytes(), manifest))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("command", ["gen", "select", "simulate", "report"])
def test_stdout_closed_before_the_first_write(runner, tmp_path, command):
    # `| head -c0`: the reader has gone before the command writes a byte;
    # it still exits 0, quietly, and writes what a run read to the end
    # writes.  Each run has its own working directory and the same
    # relative --out, so even the manifests match byte for byte.
    path = gen_dataset(runner, tmp_path).resolve()
    summary = tmp_path / "sim" / "summary.json"
    if command == "report":
        res = runner.invoke(main, ["simulate", "--dataset", str(path),
                                   "--protocol", "no-delete",
                                   "--iterations", "5",
                                   "--out", str(summary.parent)])
        assert res.exit_code == 0, res.output
    args = {"gen": ["--n", "50"],
            "select": ["--dataset", str(path), "--scores-csv", "scores.csv"],
            "simulate": ["--dataset", str(path), "--protocol",
                         "random-delete", "--steps", "2", "--iterations", "5"],
            "report": [str(summary)]}[command]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "delpoint.cli", command, *args,
           "--out", "out"]
    files = []
    for name in ("whole", "cut"):
        cwd = tmp_path / name
        cwd.mkdir()
        if name == "whole":
            proc = subprocess.run(cmd, env=env, cwd=cwd, timeout=120,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(cmd, env=env, cwd=cwd, timeout=120,
                                      stdout=write_end,
                                      stderr=subprocess.PIPE)
            finally:
                os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr
        files.append({f.relative_to(cwd).as_posix(): f.read_bytes()
                      for f in sorted(cwd.rglob("*")) if f.is_file()})
    assert "out/manifest.json" in files[0]
    assert files[0] == files[1]


@pytest.mark.parametrize("command, name", [("select", "selection.json"),
                                           ("bounds", "bounds.json")])
def test_unwritable_out_exits_two(runner, tmp_path, command, name):
    path = gen_dataset(runner, tmp_path)
    (tmp_path / "out" / name).mkdir(parents=True)
    res = runner.invoke(main, [command, "--dataset", str(path),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "error:" in res.output and name in res.output


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

    def test_one_step_paired_difference_matches_select(self, runner,
                                                       tmp_path):
        # The CLI form of test_sim.py's
        # test_one_step_paired_difference_is_exact.  Under one seed a
        # deletion run's one-step weights minus no_delete's are
        # -2 gamma (r_v x_v - g) / (n - 1), free of noise, whose norm is
        # 2 gamma N_v / (n - 1), with N_v = d_v denom(n) the numerator of
        # select's scan at the same w0; perfect_delete deletes select's
        # best.
        #
        # Allowance, with gamma_k = k u / (1 - k u) and u = 2^-53; both
        # CSVs write floats as their repr, which reads back exactly.
        # * Weights: that test bounds each coordinate's error by
        #   e_i = gamma_{d+8} (A_no_i + A_del_i), so the norm of the
        #   difference is within ||e|| of 2 gamma N / (n - 1), where N is
        #   ||r_v x_v - g|| in exact arithmetic on the float inputs.
        # * The scan's d_v: the kernel's c_j = r_v x_vj - g_j takes
        #   <x_v, w0> (d roundings), "y_v -" (1), "* x_vj" and "- g_j"
        #   (2), with g_j = s_yx_j - (s_xx w0)_j rounded d + 1 times, so
        #   |c_j - exact| <= gamma_{d+3} B_j, where
        #   B_j = (|y_v| + |x_v|.|w0|) |x_vj| + |s_yx_j| + (|s_xx| |w0|)_j.
        #   The squares, their sum and the root (gamma_{d+1}) and the
        #   division by denom(n) (u) put d_v denom, taken exactly with the
        #   scan's own float denom, within gamma_{d+2} ||c|| of ||c||, and
        #   ||c|| <= 2 d_v denom.  So |d_v denom - N| <=
        #   gamma_{d+3} (2 d_v denom + ||B||).
        # The sum of the two, scaled, is the allowance a; it is evaluated
        # in floats, which moves it by a few u of itself.  The comparison
        # is exact: (T - a)_+^2 <= ||w_del - w_no||^2 <= (T + a)^2 in
        # Fractions, with T = 2 gamma d_v denom / (n - 1).
        path = gen_dataset(runner, tmp_path, "--extra-features", "2")
        w0 = np.array([2.9, 0.1, -0.4])
        common = ["--dataset", str(path), "--w0", "2.9,0.1,-0.4",
                  "--seed", "5"]
        scores_csv = tmp_path / "scores.csv"
        res = runner.invoke(main, ["select", *common,
                                   "--scores-csv", str(scores_csv)])
        assert res.exit_code == 0, res.output
        best = json.loads(res.output)["best"]["index"]
        d_v = [float(line.split(",")[1])
               for line in scores_csv.read_text().splitlines()[1:]]
        iterations = 20
        weights, logs = {}, {}
        for proto in ("perfect-delete", "random-delete", "no-delete"):
            out = tmp_path / proto
            res = runner.invoke(main, ["simulate", *common, "--protocol",
                                       proto, "--steps", "1", "--iterations",
                                       str(iterations), "--out", str(out)])
            assert res.exit_code == 0, res.output
            weights[proto] = [
                [Fraction(float(v)) for v in line.split(",")[1:]]
                for line in (out / "weights.csv").read_text().splitlines()[1:]]
            logs[proto] = json.loads(
                (out / "summary.json").read_text())["deletions_log"]
        assert logs["perfect-delete"] == [[best]] * iterations

        ds = load_csv(path)
        hp = HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, seed=5)
        n, d, S, b, gamma = ds.n, ds.dim, ds.s_xx, ds.s_yx, hp.gamma
        denom = snr_denominator(n, hp)
        u = 2.0 ** -53
        gamma_scan = (d + 3) * u / (1 - (d + 3) * u)
        gamma_step = (d + 8) * u / (1 - (d + 8) * u)
        for proto in ("perfect-delete", "random-delete"):
            for it, [v] in enumerate(logs[proto]):
                x, y = ds.X[v], ds.y[v]
                noise = np.abs(
                    hp.sigma * make_rng(hp.seed, it).standard_normal(d))
                a_no = np.abs(w0) + gamma * (
                    2 * (np.abs(S) @ np.abs(w0) + np.abs(b)) + noise)
                a_del = np.abs(w0) + gamma * (
                    2 * ((n * np.abs(S) + np.abs(np.outer(x, x)))
                         @ np.abs(w0) + n * np.abs(b) + np.abs(y * x))
                    / (n - 1) + noise)
                B = ((abs(y) + np.abs(x) @ np.abs(w0)) * np.abs(x)
                     + np.abs(b) + np.abs(S) @ np.abs(w0))
                a = Fraction(float(
                    np.linalg.norm(gamma_step * (a_no + a_del))
                    + 2 * gamma / (n - 1) * gamma_scan
                    * (2 * d_v[v] * denom + np.linalg.norm(B))))
                T = (2 * Fraction(gamma) * Fraction(d_v[v]) * Fraction(denom)
                     / (n - 1))
                diff2 = sum((p - q) ** 2 for p, q in zip(
                    weights[proto][it], weights["no-delete"][it]))
                assert max(T - a, 0) ** 2 <= diff2 <= (T + a) ** 2, \
                    (proto, it)

    @pytest.mark.parametrize("proto, extra", [
        ("perfect-delete", ["--delta", "0.2"]),
        ("perfect-delete", ["--delta", "0.2", "--tie-break", "paper"]),
        ("random-delete", []),
        ("no-delete", ["--w0", "-0.0"]),
    ], ids=["perfect-skips", "perfect-paper", "random", "none"])
    def test_summary_bytes_are_indent2(self, runner, tmp_path, proto, extra):
        path = gen_dataset(runner, tmp_path)
        out = tmp_path / "sim"
        res = runner.invoke(main, ["simulate", "--dataset", str(path),
                                   "--protocol", proto, "--steps", "5",
                                   "--iterations", "8", "--bins", "4",
                                   *extra, "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = (out / "summary.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        c = doc["config"]
        hp = HyperParams(gamma=c["gamma"], sigma=c["sigma"],
                         alpha=c["alpha"], delta=c["delta"], seed=c["seed"],
                         snr_convention=c["snr_convention"])
        cfg = StepConfig(protocol=c["protocol"], steps=c["steps"],
                         iterations=c["iterations"], hp=hp, w0=c["w0"],
                         bins=c["bins"], tie_break=c["tie_break"])
        built = summary_doc(c, run_protocol(cfg, load_csv(path)))
        assert text == json.dumps(built, indent=2) + "\n"
        log = [e for row in doc["deletions_log"] for e in row]
        if proto == "no-delete":
            assert doc["deletions_log"] == [[]] * 8
        elif "--delta" in extra:
            assert None in log and set(log) != {None}


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

    GOOD = {"config": {"steps": 1, "protocol": "no_delete"},
            "mean": [0.5, 1], "variance": [0.25, 0.0]}

    @pytest.mark.parametrize("content", [
        b"not json\n", b'{"a": 1}\n', b"\xff", b"[1]\n",
        {"mean": "abc", "variance": {"a": 1}},
        {"config": {"steps": 2.7, "protocol": "no_delete"}},
        {"config": {"steps": True, "protocol": "no_delete"}},
        {"config": {"steps": 0, "protocol": "no_delete"}},
        {"config": {"steps": "1", "protocol": "no_delete"}},
        {"config": {"steps": 1, "protocol": "x"}},
        {"config": {"steps": 1, "protocol": ["no_delete"]}},
        {"mean": [], "variance": []},
        {"mean": [0.5, True]},
        {"variance": [0.25, "0"]},
        {"variance": [0.25]},
        {"mean": [[0.5], [1.0]]},
    ], ids=["non-json", "no-config", "non-utf8", "list", "str-and-dict",
            "fractional-steps", "bool-steps", "zero-steps", "str-steps",
            "unknown-protocol", "list-protocol", "empty-lists", "bool-mean",
            "str-variance", "unequal-lengths", "nested-mean"])
    def test_non_summary_exits_two(self, runner, tmp_path, content):
        path = tmp_path / "summary.json"
        if isinstance(content, dict):  # one or two fields of GOOD replaced
            content = json.dumps(self.GOOD | content).encode()
        path.write_bytes(content)
        res = runner.invoke(main, ["report", str(path)])
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith(
            f"error: {path}: not a simulate summary.json: ")
        # an uncaught exception would be a traceback, not SystemExit
        assert isinstance(res.exception, SystemExit)

    def test_good_document_passes(self, runner, tmp_path):
        # the base of the malformed cases above is itself accepted
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(self.GOOD))
        res = runner.invoke(main, ["report", str(path)])
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[2] == (
            "| 1 | no_delete | 0.5, 1 | 0.25, 0.0 |")

    def test_out_dir_gets_report_and_manifest(self, runner, tmp_path):
        s = self._simulate(runner, tmp_path, "no-delete", 1, "a")
        out = tmp_path / "rep"
        res = runner.invoke(main, ["report", str(s), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "report.md").read_text() == res.output
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "report"
        assert doc["artifacts"] == ["report.md"]
