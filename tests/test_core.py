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
    InvalidValue,
    NumericOverflow,
    WouldEmptyDataset,
    load_csv,
    save_csv,
)
from delpoint import core
from delpoint.core import (_json_chunks, _parse_blocks, _parse_rows, _tokens,
                           _write_csv)
from delpoint.errors import DomainError

from _oracles import (IndexOutOfRange, csv_writer_text, delete_point,
                      json_doc_indent2, stats_loop)


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

    @pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (17, 5), (300, 8),
                                      (4097, 33), (20000, 64)])
    def test_second_moment_exactly_symmetric(self, rng, n, d):
        # numpy forms X.T @ X with syrk, which fills one triangle and
        # copies it, so s_xx needs no symmetrization
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 1e3, size=d)
        s_xx = Dataset.from_arrays(X, rng.normal(size=n)).s_xx
        assert np.array_equal(s_xx, s_xx.T)

    def test_largest_finite_moment_accepted(self):
        # x^2 = 1.69e308 is finite; averaging it with its transpose, as
        # (s_xx + s_xx.T) / 2, would overflow
        ds = Dataset.from_arrays([[1.3e154]], [0.0])
        assert ds.s_xx[0, 0] == 1.3e154 * 1.3e154

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

    # the range of the CLI's --seed: an integer in [0, 2**64)
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 2.0, "3", None])
    def test_seed_outside_cli_range_rejected(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            HyperParams(gamma=0.1, sigma=1.0, alpha=0.05, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_seed_in_cli_range_kept(self, seed):
        hp = HyperParams(gamma=0.1, sigma=1.0, alpha=0.05, seed=seed)
        assert type(hp.seed) is int and hp.seed == seed


class TestJsonRows:
    """The pieces of _json_chunks join to json.dumps(indent=2) of the row
    dicts."""

    HEAD = {"format_version": 1, "target": 4.65, "best": None}

    @classmethod
    def check(cls, names, columns):
        columns = [np.asarray(col) for col in columns]
        text = "".join(_json_chunks(cls.HEAD, "rows",
                                    dict(zip(names, columns))))
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


def stdlib_tokens(col) -> list[str]:
    """The tokens json.dumps writes for the elements of col: the oracle
    of _tokens."""
    return json.dumps(col.tolist())[1:-1].split(", ")


def float_bits(rng, size, exponents=(0, 2047)):
    """Float64s of uniform random bits, with the biased exponent field
    drawn from [exponents[0], exponents[1])."""
    bits = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64)
    bits &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # sign and fraction
    exp = rng.integers(*exponents, size=size).astype(np.uint64)
    return (bits | exp << np.uint64(52)).view(np.float64)


class TestTokens:
    """_tokens writes the token of json.dumps for every element, whether
    orjson writes it or json.dumps mends it, at any share of mended
    elements.  This guards against a change in orjson's float layout."""

    MAX = np.finfo(np.float64).max
    EDGES = [0.0, -0.0, 1e-4, np.nextafter(1e-4, 0.0), 1e16,
             np.nextafter(1e16, 0.0), 1e-5, 1e15, 1e22, 2.0 ** 53, 5e-324,
             MAX, -MAX, np.nan, np.inf, -np.inf]

    @staticmethod
    def check(col):
        col = np.asarray(col)
        assert _tokens(col) == stdlib_tokens(col)

    @pytest.mark.parametrize("value", EDGES, ids=repr)
    def test_edge_value(self, value):
        self.check([value])  # the column alone: odd values, all mended
        self.check([value, -value, 0.5])  # among plain values: mended
        self.check([0.5, value, 1.5, -value, 2.5])

    def test_edge_values_together(self):
        self.check(self.EDGES)
        self.check(self.EDGES + [0.25] * len(self.EDGES))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        # every exponent: nearly all print in exponent form
        self.check(float_bits(rng, 100_000))
        # 2^-15 to 2^55: mostly plain, with both thresholds inside
        self.check(float_bits(rng, 100_000, (1008, 1079)))

    @pytest.mark.parametrize("powers, share", [
        ((0, 1), "none"), ((-7, 3), "some"), ((-9, -8), "all"),
        ((18, 19), "all")], ids=["none", "some", "all-small", "all-large"])
    def test_exponent_form_share(self, powers, share):
        rng = np.random.default_rng(21)
        col = (rng.choice([-1.0, 1.0], 5_000) * rng.uniform(1.0, 9.0, 5_000)
               * 10.0 ** rng.integers(*powers, size=5_000))
        odd = (np.abs(col) < 1e-4) | (np.abs(col) >= 1e16)
        assert (odd.any(), odd.all()) == {"none": (False, False),
                                          "some": (True, False),
                                          "all": (True, True)}[share]
        self.check(col)

    def test_other_dtypes(self):
        info = np.iinfo(np.int64)
        self.check(np.array([info.min, -1, 0, 1, info.max], dtype=np.int64))
        self.check(np.array([0, 2 ** 64 - 1], dtype=np.uint64))
        self.check(np.array([True, False, True]))
        f32 = np.finfo(np.float32)
        self.check(np.array([1e-4, 1e-5, 0.1, f32.smallest_subnormal,
                             f32.max, -f32.max, np.nan, 3.0],
                            dtype=np.float32))
        self.check(np.random.default_rng(22).normal(size=200)
                   .astype(np.float32))
        # float16 is widened like float32; orjson rejects it as it is
        f16 = np.finfo(np.float16)
        self.check(np.array([0.1, 1e-5, f16.max, -f16.max,
                             f16.smallest_subnormal, np.inf, 2.0],
                            dtype=np.float16))
        info = np.iinfo(np.int32)
        self.check(np.array([info.min, -1, 0, 1, info.max], dtype=np.int32))
        self.check(np.array([0, 255], dtype=np.uint8))

    def test_strided_and_length_one(self):
        col = np.array(self.EDGES * 3 + [0.1, 2.5, -7.0] * 20)
        self.check(col[::3])
        self.check(col[::-2])
        for value in (0.5, 1e-5, 7, True):
            self.check([value])
        # orjson rejects a strided view: _tokens hands it a C-contiguous
        # copy, here of columns of X.T as save_csv writes them
        X = np.random.default_rng(23).normal(size=(50, 3)) * 1e-3
        for col in X.T:
            self.check(col)
            self.check(col[7:30])

    def test_read_only(self):
        # a contiguous float64 column reaches orjson as it is, as the
        # frozen ds.y does from save_csv
        col = np.array(self.EDGES + [0.25, -1.5, 3.0] * len(self.EDGES))
        col.setflags(write=False)
        assert np.ascontiguousarray(col, dtype=np.float64) is col
        self.check(col)

    def test_swapped_byte_order(self):
        # orjson misreads a swapped byte order with no error
        values = self.EDGES + [1.5, -2.25, 0.1, 3.0] * 5
        self.check(np.array(values, dtype=">f8"))
        self.check(np.array([1.5, 1e-5, 2.0], dtype=">f4"))
        info = np.iinfo(np.int64)
        self.check(np.array([1, -1, 0, 7, info.min, info.max], dtype=">i8"))
        self.check(np.array([1, 2, 300], dtype=">u2"))


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

    @pytest.mark.parametrize("header", ['"x0\n",y', "x\u0660,y", "x00,y",
                                        "x0,x01,y"],
                             ids=["trailing-newline", "arabic-indic-zero",
                                  "leading-zero", "leading-zero-second"])
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

    def test_writer_tokens_are_reprs(self, tmp_path):
        # ints, exponent-form and subnormal floats and float32: each
        # written as the repr of its tolist() element.  Every column the
        # package writes is checked finite, so no non-finite value is here
        info = np.iinfo(np.int64)
        columns = [
            np.array([info.min, -1, 0, 7, info.max, 12], dtype=np.int64),
            np.array([0, 1, 2, 3, 4, 2 ** 64 - 1], dtype=np.uint64),
            np.array([1e-05, -0.0, 1e+16, -1e+300, 2.5e-310, 5e-324]),
            np.array([0.1, 1e-5, 3.4e+38, 3.0, -2.5, 1e-45],
                     dtype=np.float32)]
        path = tmp_path / "table.csv"
        header = ["i", "u", "f", "h"]
        _write_csv(path, header, columns)
        rows = [list(map(repr, row))
                for row in zip(*(col.tolist() for col in columns))]
        assert path.read_bytes() == csv_writer_text(header, rows).encode()

    def test_swapped_byte_order_round_trip(self, tmp_path):
        values = np.random.default_rng(26).normal(size=(9, 2))
        path = tmp_path / "big_endian.csv"
        _write_csv(path, ["x0", "y"], [*values.T.astype(">f8")])
        ds = load_csv(path)
        assert ds.X[:, 0].tobytes() == values[:, 0].tobytes()
        assert ds.y.tobytes() == values[:, 1].tobytes()

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
        # the line reader skips an empty line, not a line of blanks
        ("x0,y\n1,2\n\n \t\n3,4\n", DimensionMismatch,
         "4: expected 2 fields, got 1"),
        ("x0,y\n1,2 # c\n", InvalidValue,
         "2: could not convert string to float: '2 # c'"),
        ("x0,x1,y\n1,2\n3,4\n", DimensionMismatch,
         "2: expected 3 fields, got 2"),
        # JSON rejects a blank inside a token as float() does
        ("x0,y\n3,4\n1 2,5\n", InvalidValue,
         "3: could not convert string to float: '1 2'"),
    ], ids=["whitespace-line", "empty-then-whitespace-line", "comment",
            "narrow-rows", "blank-in-a-field"])
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
        # the header read decodes only the first chunk, so the block reader
        # meets this byte, leaves the file to the line loop, and that
        # reports it
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


def float_oracle(text: str) -> np.ndarray:
    """The data rows of a CSV text, each field through float(): what
    both CSV readers must load."""
    return np.array([[float(v) for v in line.split(",")]
                     for line in text.splitlines()[1:] if line])


class TestBlockReader:
    """_parse_blocks reads the float() of each field, or leaves the whole
    file to _parse_rows; load_csv's arrays are the same either way."""

    @staticmethod
    def check(tmp_path, text, fast=True):
        """load_csv's X and y are the oracle's bytes; ``fast`` is whether
        _parse_blocks takes the file."""
        want = float_oracle(text)
        d = want.shape[1] - 1
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, "rb") as fh:
            arr = _parse_blocks(fh, d)
        assert (arr is not None) == fast
        if fast:
            assert arr.tobytes() == want.tobytes()
        ds = load_csv(path)
        assert ds.X.tobytes() == np.ascontiguousarray(want[:, :d]).tobytes()
        assert ds.y.tobytes() == want[:, d].tobytes()

    @staticmethod
    def table(values, d):
        """CSV text of the values as reprs, d + 1 to a row."""
        rows = np.asarray(values).reshape(-1, d + 1).tolist()
        head = ",".join([f"x{j}" for j in range(d)] + ["y"])
        return "".join(f"{line}\n" for line in
                       [head] + [",".join(map(repr, row)) for row in rows])

    def test_random_bit_patterns(self, tmp_path):
        # every exponent but the non-finite one, subnormals included; the
        # moments need |x| below about 1e154, so load_csv reads up to 2^476
        rng = np.random.default_rng(23)
        text = self.table(float_bits(rng, 30_000), 2)
        path = tmp_path / "all.csv"
        path.write_text(text)
        with open(path, "rb") as fh:
            assert _parse_blocks(fh, 2).tobytes() == \
                float_oracle(text).tobytes()
        self.check(tmp_path, self.table(float_bits(rng, 30_000, (0, 1500)),
                                        2))

    @pytest.mark.parametrize("token, fast", [
        ("0", True), ("-0", False), ("-0.0", True), ("1E5", True),
        ("1e+16", True), ("1e-400", True), ("-1e-400", True),
        (" 0", True), ("0 ", True), ("\t1.5", True), ("-0.0\t", True),
        (" \t-7e-3 \t", True), (" -0", False), ("-0\t", False),
        ("-0 ", False)], ids=repr)
    def test_tokens(self, tmp_path, token, fast):
        # orjson reads "-0" as the int 0, so that file goes to the loop,
        # whatever blanks follow it; JSON skips blanks as float() does
        self.check(tmp_path, f"x0,y\n{token},1.5\n2.5,{token}\n", fast)

    def test_blanks_around_fields(self, tmp_path):
        # ", " separators, and spaces and tabs at either end of a field
        rng = np.random.default_rng(25)
        head, body = self.table(rng.normal(size=3_000) * 10.0 ** 3,
                                2).split("\n", 1)
        self.check(tmp_path, f"{head}\n" + body.replace(",", ", "))
        parts = body.split(",")
        pads = rng.choice(["", " ", "\t", " \t "], size=len(parts) - 1)
        self.check(tmp_path, f"{head}\n" + "".join(
            part + pad + "," + pad for part, pad in zip(parts, pads))
            + parts[-1])

    def test_integers_past_float_precision(self, tmp_path):
        ints = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 53 + 3,
                2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 63 + 1025,
                2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 64 + 2048,
                2 ** 64 + 2049, 2 ** 64 + 6144, 10 ** 25 + 1, 3 ** 60]
        tokens = [str(sign * i) for i in ints for sign in (1, -1)]
        self.check(tmp_path, "x0,y\n" + "".join(
            f"{a},{b}\n" for a, b in zip(tokens[::2], tokens[1::2])))

    @pytest.mark.parametrize("text", [
        "x0,x1,y\r\n1.5,2,3e-3\r\n-4,5.25,6\r\n",
        "x0,y\n1.5,2\n3,4.75",
        "x0,y\n1.5,-2\n",
        "x0,y\n1.5,-2",
    ], ids=["crlf", "no-final-newline", "one-row", "one-row-no-newline"])
    def test_line_ends(self, tmp_path, text):
        self.check(tmp_path, text)

    @staticmethod
    def check_both_readers(tmp_path, text, d):
        """check, with the file left to _parse_rows, whose arrays are
        _parse_blocks' on the same rows without their empty lines."""
        TestBlockReader.check(tmp_path, text, fast=False)
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"".join(
            line for line in text.encode().splitlines(keepends=True)
            if line.strip(b"\r\n")))
        with open(plain, "rb") as fh:
            assert (_parse_blocks(fh, d).tobytes()
                    == _parse_rows(tmp_path / "data.csv", d).tobytes())

    @pytest.mark.parametrize("text", [
        "x0,y\n\n1.5,2\n3,4.75\n",
        "x0,y\n1.5,2\n\n3,4.75\n",
        "x0,y\n1.5,2\n3,4.75\n\n",
        "x0,y\n\n\n1.5,2\n\n\n\n3,4.75\n\n\n",
        "x0,y\r\n\r\n1.5,2\r\n\r\n\r\n3,4.75\r\n\r\n",
        "x0,y\n1.5,2\n\n3,4.75",
    ], ids=["leading", "middle", "trailing", "repeated", "crlf",
            "no-final-newline"])
    def test_empty_lines_go_to_the_loop(self, tmp_path, text):
        # csv skips empty lines; the block reader leaves them to it
        self.check_both_readers(tmp_path, text, 1)

    @pytest.mark.parametrize("size", [1, 2, 9])
    def test_empty_line_at_a_block_cut(self, tmp_path, monkeypatch, size):
        # 9 bytes end the first read at the newline of "1.5,2.25", so the
        # next block opens with the empty line; 1 and 2 give blocks of
        # empty lines alone
        monkeypatch.setattr(core, "_READ_BLOCK", size)
        for text in ("x0,y\n1.5,2.25\n\n3,4.75\n5,6\n",
                     "x0,y\r\n1.5,2.25\r\n\r\n3,4.75\r\n5,6\r\n"):
            self.check_both_readers(tmp_path, text, 1)

    def test_blank_lines_that_are_not_empty(self, tmp_path):
        # a line of blanks is a row of one field, which csv reports
        path = tmp_path / "blank.csv"
        path.write_text("x0,y\n \n1,2\n")
        with open(path, "rb") as fh:
            assert _parse_blocks(fh, 1) is None
        with pytest.raises(DimensionMismatch) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:2: expected 2 fields, got 1"
        # a header with only empty lines after it has no data rows
        for text in ("x0,y\n\n\n", "x0,y\r\n\r\n"):
            path.write_text(text, newline="")
            with pytest.raises(EmptyDataset, match="no data rows"):
                load_csv(path)

    def test_lone_cr_line_ends_go_to_the_loop(self, tmp_path):
        # csv ends lines at a lone CR; the block reader leaves them to it
        self.check(tmp_path, "x0,y\r1,2\r3,4\r", fast=False)
        self.check(tmp_path, "x0,y\n1,2\r3,4\n", fast=False)

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_rows_straddle_blocks(self, tmp_path, monkeypatch, size):
        # blocks smaller than a row, and rows cut anywhere
        monkeypatch.setattr(core, "_READ_BLOCK", size)
        values = np.random.default_rng(24).normal(size=300) * 10.0 ** 5
        text = self.table(values, 2)
        self.check(tmp_path, text)
        self.check(tmp_path, text.replace("\n", "\r\n"))
        self.check(tmp_path, text[:-1])

    def test_ragged_rows_with_a_whole_field_count(self, tmp_path):
        # 4 fields in 2 rows of a d = 1 file: a count check alone passes
        path = tmp_path / "ragged.csv"
        path.write_text("x0,y\n1,2,3\n4\n")
        with open(path, "rb") as fh:
            assert _parse_blocks(fh, 1) is None
        with pytest.raises(DimensionMismatch) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:2: expected 2 fields, got 3"


def halfway_tokens(rng, size):
    """Decimal tokens of 17 to 25 significant digits at the exact midpoint
    (2 m + 1) 2^(k) of two neighbouring doubles, m a 53-bit significand,
    and one unit of the last digit below and above it; each in plain and
    in exponent form, with a random sign."""
    tokens = []
    for m, k in zip(rng.integers(2 ** 52, 2 ** 53, size).tolist(),
                    rng.choice([*range(-12, 0), *range(1, 28)], size)):
        k = int(k)
        # the midpoint is digits * 10^-scale exactly
        digits, scale = ((2 * m + 1) << k, 0) if k > 0 else (
            (2 * m + 1) * 5 ** -k, -k)
        assert 17 <= len(str(digits)) <= 25
        sign = "-" if rng.integers(2) else ""
        for n in (digits - 1, digits, digits + 1):
            text = str(n)
            tokens.append(sign + (f"{text[:-scale]}.{text[-scale:]}"
                                  if scale else text))
            tokens.append(f"{sign}{text}e-{scale}")
    return tokens


class TestOrjsonNumbers:
    """orjson.loads, then a float64 array, reads each decimal token as
    float() does: the block reader of load_csv relies on it, so an orjson
    whose number parser rounds otherwise fails here, not in the data."""

    @staticmethod
    def check(tokens):
        import orjson
        got = np.array(orjson.loads("[" + ",".join(tokens) + "]"),
                       dtype=np.float64)
        want = np.array([float(t) for t in tokens])
        assert got.tobytes() == want.tobytes()

    def test_random_bit_pattern_reprs(self):
        values = float_bits(np.random.default_rng(25), 100_000)
        self.check(list(map(repr, values.tolist())))

    def test_halfway_points(self):
        self.check(halfway_tokens(np.random.default_rng(26), 20_000))
