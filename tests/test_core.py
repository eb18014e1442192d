import dataclasses
import importlib
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
    SufficientStats,
    WouldEmptyDataset,
    delete_point,
    load_csv,
    save_csv,
)
from delpoint.errors import DomainError

from _oracles import stats_loop


def stats_of(X, y):
    return Dataset.from_arrays(X, y).stats


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


class TestIds:
    def test_unsorted_or_repeated_ids_rejected(self):
        X, y = [[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]
        for ids in ([5, 2, 9], [2, 2, 9], [9, 5, 2]):
            with pytest.raises(DomainError):
                Dataset.from_arrays(X, y, ids=ids)

    def test_lookup_on_sorted_noncontiguous_ids(self):
        ds = Dataset.from_arrays([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0],
                                 ids=[2, 5, 9])
        assert [ds.position_of(i) for i in (2, 5, 9)] == [0, 1, 2]
        for missing in (0, 3, 10):
            with pytest.raises(IndexOutOfRange):
                ds.position_of(missing)
        out = delete_point(ds, 0)
        assert list(out.ids) == [5, 9]
        assert out.position_of(9) == 1


class TestDeletePoint:
    def test_t3_delete_last(self, t3):
        out = delete_point(t3, 2)
        assert out.n == 2
        assert out.stats.s_yx == pytest.approx([4.0], rel=1e-12)
        np.testing.assert_allclose(out.stats.s_xx, [[2.5]], rtol=1e-12)
        assert list(out.ids) == [0, 1]

    def test_delete_then_reinsert_matches(self, t3):
        reduced = delete_point(t3, 2)
        back = Dataset.from_arrays(
            np.vstack([reduced.X, t3.X[2:3]]),
            np.concatenate([reduced.y, t3.y[2:3]]))
        np.testing.assert_allclose(back.stats.s_yx, t3.stats.s_yx, rtol=1e-12)
        np.testing.assert_allclose(back.stats.s_xx, t3.stats.s_xx, rtol=1e-12)

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
                    ds.stats.s_yx, fresh.stats.s_yx, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(
                    ds.stats.s_xx, fresh.stats.s_xx, rtol=1e-10, atol=1e-12)

    def test_ids_track_originals(self, t3):
        out = delete_point(t3, 1)
        assert list(out.ids) == [0, 2]
        assert out.position_of(2) == 1
        with pytest.raises(IndexOutOfRange):
            out.position_of(1)

    def test_overflowing_update_rejected(self):
        # finite moments whose leave-one-out update overflows: n s_yx = 3e308
        ds = Dataset.from_arrays([[1.0], [1.0], [1.0]], [1.0, 1.0, 1.0])
        big = dataclasses.replace(
            ds, stats=SufficientStats(s_yx=[1e308], s_xx=[[1.0]]))
        with pytest.raises(NumericOverflow):
            delete_point(big, 0)

    def test_snapshots_independent(self, t3):
        out = delete_point(t3, 0)
        assert t3.n == 3 and out.n == 2
        assert not t3.X.flags.writeable
        assert not out.X.flags.writeable


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
