import dataclasses
import importlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from delpoint import (
    Dataset,
    DimensionMismatch,
    EmptyDataset,
    HyperParams,
    IndexOutOfRange,
    InvalidValue,
    NumericOverflow,
    WouldEmptyDataset,
    load_csv,
    save_csv,
)
from delpoint.core import _dumps_indent2, _json_chunks, _tokens
from delpoint.errors import DomainError

from _oracles import (csv_writer_text, delete_point, json_doc_indent2,
                      stats_loop)


def stats_of(X, y):
    """The dataset of X and y, read for its moments s_yx and s_xx."""
    return Dataset.from_arrays(X, y)


class TestComputeStats:
    """Validation and moments of Dataset.from_arrays."""

    def test_t3_hand_sum(self):
        st = stats_of([[1], [2], [3]], [2, 3, 5])
        assert st.s_yx == pytest.approx([23 / 3], rel=1e-15)
        np.testing.assert_allclose(st.s_xx, [[14 / 3]], rtol=1e-15)

    def test_zero_point(self):
        st = stats_of([[0]], [0])
        assert st.s_yx == pytest.approx([0.0])
        np.testing.assert_allclose(st.s_xx, [[0.0]])

    def test_two_unit_points(self):
        st = stats_of([[1, 0], [0, 1]], [1, 1])
        assert st.s_yx == pytest.approx([0.5, 0.5])
        np.testing.assert_allclose(st.s_xx, [[0.5, 0.0], [0.0, 0.5]])

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            stats_of(np.empty((0, 1)), np.empty(0))

    def test_mixed_dimensions_rejected(self):
        # rows of different lengths, a label count that differs from the
        # row count, a 1-D X, or an empty feature dimension
        with pytest.raises(DimensionMismatch):
            stats_of([[1.0], [1.0, 2.0]], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            stats_of([[1.0], [2.0]], [1.0])
        with pytest.raises(DimensionMismatch):
            stats_of([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            stats_of(np.empty((2, 0)), [1.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidValue):
            stats_of([[np.nan]], [1.0])
        with pytest.raises(InvalidValue):
            stats_of([[1.0]], [float("inf")])

    def test_matches_loop_oracle(self, rng):
        for _ in range(25):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            st = stats_of(X, y)
            o_yx, o_xx = stats_loop(X.tolist(), y.tolist())
            np.testing.assert_allclose(st.s_yx, o_yx, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(st.s_xx, o_xx, rtol=1e-12, atol=1e-14)

    def test_permutation_invariant(self, rng):
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        base = stats_of(X, y)
        perm = rng.permutation(12)
        other = stats_of(X[perm], y[perm])
        np.testing.assert_allclose(base.s_yx, other.s_yx, rtol=1e-12)
        np.testing.assert_allclose(base.s_xx, other.s_xx, rtol=1e-12)

    def test_overflowing_moments_rejected(self):
        # x^2 = 1e400 overflows float64; reported as an error, not a warning
        with pytest.raises(NumericOverflow):
            Dataset.from_arrays([[1e200], [2.0]], [1.0, 3.0])
        with pytest.raises(NumericOverflow):
            stats_of([[1.0], [1e200]], [1e200, 1.0])

    def test_all_arrays_read_only(self, tmp_path, t3):
        path = tmp_path / "t3.csv"
        save_csv(t3, path)
        for ds in (t3, load_csv(path)):
            for name in ("X", "y", "s_yx", "s_xx"):
                arr = getattr(ds, name)
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr.flat[0] = 1.0


class TestDeletePoint:
    """The reference deletion of run_protocol_loop."""

    def test_t3_delete_last(self, t3):
        out = delete_point(t3, 2)
        assert out.n == 2
        assert out.s_yx == pytest.approx([4.0], rel=1e-12)
        np.testing.assert_allclose(out.s_xx, [[2.5]], rtol=1e-12)

    def test_delete_then_reinsert_matches(self, t3):
        reduced = delete_point(t3, 2)
        back = Dataset.from_arrays(
            np.vstack([reduced.X, t3.X[2:3]]),
            np.concatenate([reduced.y, t3.y[2:3]]))
        np.testing.assert_allclose(back.s_yx, t3.s_yx, rtol=1e-12)
        np.testing.assert_allclose(back.s_xx, t3.s_xx, rtol=1e-12)

    def test_singleton_rejected(self):
        ds = Dataset.from_arrays([[1.0]], [1.0])
        with pytest.raises(WouldEmptyDataset):
            delete_point(ds, 0)

    def test_index_out_of_range(self, t3):
        with pytest.raises(IndexOutOfRange):
            delete_point(t3, 3)
        with pytest.raises(IndexOutOfRange):
            delete_point(t3, -1)

    def test_incremental_matches_recompute_over_sequences(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(3, 51)), int(rng.integers(1, 6))
            X = rng.normal(0, 4, (n, d))
            y = rng.normal(0, 4, n)
            ds = Dataset.from_arrays(X, y)
            while ds.n > 1:
                ds = delete_point(ds, int(rng.integers(ds.n)))
                fresh = Dataset.from_arrays(ds.X, ds.y)
                np.testing.assert_allclose(
                    ds.s_yx, fresh.s_yx, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(
                    ds.s_xx, fresh.s_xx, rtol=1e-10, atol=1e-12)

    def test_ids_track_originals(self, t3):
        # the survivors keep their order: original position 2 is now 1
        out = delete_point(t3, 1)
        np.testing.assert_array_equal(out.X, t3.X[[0, 2]])
        np.testing.assert_array_equal(out.y, t3.y[[0, 2]])

    def test_overflowing_update_rejected(self):
        # finite moments whose leave-one-out update overflows: n s_yx = 3e308
        ds = Dataset.from_arrays([[1.0], [1.0], [1.0]], [1.0, 1.0, 1.0])
        big = dataclasses.replace(ds, s_yx=np.array([1e308]),
                                  s_xx=np.array([[1.0]]))
        with pytest.raises(NumericOverflow):
            delete_point(big, 0)

    def test_snapshots_independent(self, t3):
        out = delete_point(t3, 0)
        assert t3.n == 3 and out.n == 2
        for name in ("X", "y", "s_yx", "s_xx"):
            assert not getattr(t3, name).flags.writeable, name
            assert not getattr(out, name).flags.writeable, name


class TestHyperParams:
    def test_alpha_open_interval(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(DomainError):
                HyperParams(gamma=0.1, sigma=1.0, alpha=bad)

    def test_negative_scales_rejected(self):
        with pytest.raises(DomainError):
            HyperParams(gamma=-1.0, sigma=1.0, alpha=0.05)
        with pytest.raises(DomainError):
            HyperParams(gamma=0.1, sigma=-1.0, alpha=0.05)
        with pytest.raises(DomainError):
            HyperParams(gamma=0.1, sigma=1.0, alpha=0.05, delta=-1.0)

    def test_unknown_convention_rejected(self):
        with pytest.raises(DomainError):
            HyperParams(gamma=0.1, sigma=1.0, alpha=0.05, snr_convention="x")


class TestJsonRows:
    """The pieces of _json_chunks join to json.dumps(indent=2) of the row
    dicts."""

    HEAD = {"format_version": 1, "target": 4.65, "best": None}

    @classmethod
    def check(cls, names, columns):
        columns = [np.asarray(col) for col in columns]
        text = "".join(_json_chunks(
            cls.HEAD, "rows", names,
            lambda lo, hi: [_tokens(col[lo:hi]) for col in columns],
            len(columns[0])))
        assert text == json_doc_indent2(cls.HEAD, "rows", names, columns)
        return text

    def test_one_row_has_no_separator(self):
        text = self.check(["index", "value", "flag"],
                          [[7], [-2.5e-07], [True]])
        assert "}," not in text

    def test_int_and_bool_columns(self):
        text = self.check(["index", "a", "b"],
                          [np.arange(4), [True, False, False, True],
                           np.array([-3, 0, 2, 10 ** 12], dtype=np.int64)])
        assert '"a": true' in text and '"b": 1000000000000' in text

    def test_non_finite_values(self):
        text = self.check(["index", "v"],
                          [np.arange(3), [np.nan, np.inf, -np.inf]])
        assert '"v": NaN' in text and '"v": -Infinity' in text

    @pytest.mark.parametrize("value", [-0.0, 1e-05, -2.5e-07, 1e+16, 5e-324],
                             ids=repr)
    def test_float_reprs(self, value):
        text = self.check(["index", "v", "w"],
                          [np.arange(3), [value, 0.5, value],
                           [1.0, -value, 3.0]])
        assert f'"v": {value!r}' in text

    def test_one_column(self):
        self.check(["v"], [[0.1, 0.2, 0.30000000000000004]])


class TestDumpsIndent2:
    """_dumps_indent2 writes what json.dumps(indent=2) writes."""

    @pytest.mark.parametrize("doc", [
        {},
        [],
        None,
        -0.0,
        'a "quoted" \\ line\n',
        {"a": [], "b": {}, "c": [[]], "d": [{}], "e": None},
        {"x": [1, 2.5, -0.0, True, False, None, "s\u00e9\U0001f600"]},
        {"nan": [float("nan"), float("inf"), -float("inf")], "k\"\u00e9": 1},
        [[1, [2, [3, []]]], {"a": {"b": {"c": [4.0]}}}, 5],
        [[0, None, 7], [], [None], [1, {"inner": [2, 3]}, 4]],
        ("tuple", (1, 2), [(), (3,)]),
        {"log": [[3, 1, None], [0, 2, 2]], "mean": [0.1, 1e+16, 5e-324]},
    ], ids=repr)
    def test_matches_json_dumps(self, doc):
        assert _dumps_indent2(doc) == json.dumps(doc, indent=2)

    def test_float_subclass(self):
        # np.float64 is a float: both encoders write its float repr
        doc = {"mean": [np.float64(0.1), np.float64(-2.5e-07)]}
        assert _dumps_indent2(doc) == json.dumps(doc, indent=2)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path, rng):
        ds = Dataset.from_arrays(rng.normal(size=(17, 3)), rng.normal(size=17))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_header_layout(self, tmp_path, t3):
        path = tmp_path / "t3.csv"
        save_csv(t3, path)
        assert path.read_text().splitlines()[0] == "x0,y"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidValue):
            load_csv(path)

    @pytest.mark.parametrize("header", ['"x0\n",y', "x\u0660,y"],
                             ids=["trailing-newline", "arabic-indic-zero"])
    def test_header_names_are_ascii_x_index(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1,2\n", encoding="utf-8")
        with pytest.raises(InvalidValue, match="unexpected column"):
            load_csv(path)

    def test_bytes_match_csv_writer(self, tmp_path):
        X = [[1.0, -0.0], [1e-300, 2.5e20], [0.1, -3.0]]
        y = [7.0, 5e-324, -1.25]
        path = tmp_path / "data.csv"
        save_csv(Dataset.from_arrays(X, y), path)
        rows = [[repr(v) for v in [*x, t]] for x, t in zip(X, y)]
        want = csv_writer_text(["x0", "x1", "y"], rows)
        assert path.read_bytes() == want.encode("utf-8")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,x1,y\n1,2,3\n1,2\n")
        with pytest.raises(DimensionMismatch):
            load_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x0,y\nfoo,2\n")
        with pytest.raises(InvalidValue):
            load_csv(path)

    def test_header_only_is_empty_without_warning(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("x0,y\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EmptyDataset, match="no data rows"):
                load_csv(path)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("text, error, message", [
        ("x0,y\n1,2\n   \n3,4\n", DimensionMismatch,
         "3: expected 2 fields, got 1"),
        ("x0,y\n1,2 # c\n", InvalidValue,
         "2: could not convert string to float: '2 # c'"),
        ("x0,x1,y\n1,2\n3,4\n", DimensionMismatch,
         "2: expected 3 fields, got 2"),
    ], ids=["whitespace-line", "comment", "narrow-rows"])
    def test_loop_errors_name_the_line(self, tmp_path, text, error, message):
        path = tmp_path / "edge.csv"
        path.write_text(text)
        with pytest.raises(error) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize("text, X, y", [
        ('x0,y\n"1",2\n', [[1.0]], [2.0]),
        ("x0,y\n1_0,2\n", [[10.0]], [2.0]),
        ("x0,y\r\n1,2\r\n3,4\r\n", [[1.0], [3.0]], [2.0, 4.0]),
        ("x0,y\n 1 , 2\n", [[1.0]], [2.0]),
        ("x0,y\n\n1,2\n\n\n3,4\n\n", [[1.0], [3.0]], [2.0, 4.0]),
    ], ids=["quoted", "underscore", "crlf", "spaces", "blank-lines"])
    def test_accepted_like_float(self, tmp_path, text, X, y):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode("utf-8"))
        ds = load_csv(path)
        assert ds.X.tolist() == X and ds.y.tolist() == y

    def test_non_utf8_past_first_chunk_rejected(self, tmp_path):
        # the header read decodes only the first chunk, so np.loadtxt meets
        # this byte and the line loop reports it
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x0,y\n" + b"1.0,2.0\n" * 5000 + b"\xff,3.0\n")
        with pytest.raises(InvalidValue, match="not UTF-8 text"):
            load_csv(path)

    def test_large_file_matches_loop_bit_for_bit(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "perfbench"))
        inputs = importlib.import_module("inputs")
        made = inputs.make_input(tmp_path / "big.csv", 200_000, 3, seed=1)
        ds = load_csv(made.path)
        lines = made.path.read_text().splitlines()[1:]
        loop = np.array([[float(v) for v in line.split(",")]
                         for line in lines])
        for got, want in ((ds.X, loop[:, :3]), (ds.y, loop[:, 3]),
                          (ds.X, made.X), (ds.y, made.y)):
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
