"""CSV/JSON serialization: parse errors, round trips, byte stability."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import coblock as cb
from coblock.dataio import (
    dumps_json,
    format_float,
    load_dataset,
    read_labels_csv,
    read_params_json,
    write_labels_csv,
    write_params_json,
    write_x_csv,
    write_y_csv,
)
from coblock.errors import DimensionMismatch, NonBinaryValue, ParseError
from coblock.model import BinaryMatrix, CovariateTable, HardLabels
from helpers import read_x_reference


def write(path, text):
    path.write_bytes(text.encode("utf-8"))


def load_error(tmp_path, x_text, y_text):
    """The error load_dataset raises on these file contents."""
    write(tmp_path / "x.csv", x_text)
    write(tmp_path / "y.csv", y_text)
    with pytest.raises(ParseError) as info:
        load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")
    return info.value


class TestLoadDataset:
    @pytest.mark.parametrize(
        "x_text, y_text",
        [
            ("0,1\n1,0\n", "0.5\n-0.5\n"),
            ("0,1\r\n1,0\r\n", "0.5\r\n-0.5\r\n"),
            (" 0 ,\t1\n1 , 0 \n", "  0.5\n-0.5  \n"),
            ("0,1.0\n1e0,0\n", "0.5\n-0.5\n"),
        ],
        ids=["plain", "crlf", "padded", "float_spellings"],
    )
    def test_small_instance(self, tmp_path, x_text, y_text):
        write(tmp_path / "x.csv", x_text)
        write(tmp_path / "y.csv", y_text)
        x, y = load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")
        assert (x.n, x.m, y.p) == (2, 2, 1)
        np.testing.assert_array_equal(x.values, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(y.values, [[0.5], [-0.5]])

    def test_blank_lines_ignored(self, tmp_path):
        write(tmp_path / "x.csv", "0,1\n\n1,0\n\n")
        write(tmp_path / "y.csv", "1.0\n2.0\n")
        x, _ = load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")
        assert x.n == 2

    def test_row_count_mismatch(self, tmp_path):
        write(tmp_path / "x.csv", "0,1\n1,0\n")
        write(tmp_path / "y.csv", "1\n2\n3\n")
        with pytest.raises(DimensionMismatch, match="2 rows but y has 3"):
            load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")

    @pytest.mark.parametrize(
        "x_text, line, column",
        [("0,1\n1,2\n", 2, 2), ("0,2\n1,zero\n", 1, 2)],
        ids=["only_bad_cell", "first_in_reading_order"],
    )
    def test_non_binary_entry_names_cell(self, tmp_path, x_text, line, column):
        exc = load_error(tmp_path, x_text, "1\n2\n")
        assert type(exc) is NonBinaryValue
        assert str(exc) == f"x entry '2' at line {line}, column {column} is not 0 or 1"
        assert (exc.line, exc.column) == (line, column)

    def test_non_numeric_x_entry(self, tmp_path):
        write(tmp_path / "x.csv", "0,zero\n1,0\n")
        write(tmp_path / "y.csv", "1\n2\n")
        with pytest.raises(NonBinaryValue, match="line 1, column 2"):
            load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")

    @pytest.mark.parametrize(
        "y_text, message, line",
        [
            ("1.0\noops\n", "y entry 'oops' at line 2, column 1 is not a number", 2),
            ("1\na\n", "y entry 'a' at line 2, column 1 is not a number", 2),
            ("1.0\ninf\n", "y entry 'inf' at line 2, column 1 is not finite", 2),
            ("nan\n1.0\n", "y entry 'nan' at line 1, column 1 is not finite", 1),
        ],
        ids=["word", "letter", "inf", "nan"],
    )
    def test_non_numeric_y_entry(self, tmp_path, y_text, message, line):
        exc = load_error(tmp_path, "0\n1\n", y_text)
        assert type(exc) is ParseError
        assert str(exc) == message
        assert (exc.line, exc.column) == (line, 1)

    @pytest.mark.parametrize(
        "x_text", ["0,1\n1\n", "0,zero\n1\n"], ids=["short_row", "before_bad_cell"]
    )
    def test_ragged_rows(self, tmp_path, x_text):
        # every row is split before any cell is parsed, so the ragged
        # line 2 is named even when line 1 holds a bad cell
        exc = load_error(tmp_path, x_text, "1\n2\n")
        assert type(exc) is ParseError
        assert str(exc) == "x line 2 has 1 fields, expected 2"
        assert (exc.line, exc.column) == (2, None)

    @pytest.mark.parametrize(
        "x_bytes, reason",
        [(None, "cannot read"), (b"0,1\n1,\xff\n", "is not UTF-8 text")],
        ids=["missing", "not_utf8"],
    )
    def test_unreadable_file(self, tmp_path, x_bytes, reason):
        if x_bytes is not None:
            (tmp_path / "x.csv").write_bytes(x_bytes)
        write(tmp_path / "y.csv", "1\n2\n")
        with pytest.raises(ParseError) as info:
            load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")
        assert type(info.value) is ParseError
        assert f"x file {tmp_path / 'x.csv'}" in str(info.value)
        assert reason in str(info.value)


# cells and line ends that break the one-digit layout write_x_csv produces
NEAR_MISS_CELLS = ["2", "9", "11", "1.0", "1e0", "-0", " 1", "0 ", "", "\u0661", "x"]
NEAR_MISS_ENDS = ["\r\n", "\r", ",\n", "\n\n", " \n", ""]


@st.composite
def x_texts(draw):
    """Mostly x.csv text as write_x_csv writes it, with up to three near misses:
    odd cells, odd line ends (CRLF, trailing comma, blank line, joined
    lines) or a row one cell short or long."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(st.sampled_from("01")) for _ in range(m)] for _ in range(n)]
    ends = ["\n"] * n
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["cell", "end", "width"]))
        if kind == "cell" and rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(st.sampled_from(NEAR_MISS_CELLS))
        elif kind == "end":
            ends[i] = draw(st.sampled_from(NEAR_MISS_ENDS))
        elif kind == "width":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    return "".join(",".join(row) + end for row, end in zip(rows, ends))


class TestLoaderAgainstReference:
    @settings(max_examples=400)
    @given(x_texts())
    @example("0,11\n,1\n")
    @example("0,1\n1,0")
    @example("1\n0\n")
    @example("0,1,\n1,0,\n")
    @example("0,1\r\n1,0\r\n")
    @example("0, 1\n1,0\n")
    @example("0,1.0\n1,0\n")
    @example("0,2\n1,0\n")
    @example("\u0661,0\n0,1\n")
    @example("\n0,1\n1,0\n")
    def test_same_array_or_same_error(self, x_text):
        with tempfile.TemporaryDirectory() as tmp:
            xp, yp = Path(tmp) / "x.csv", Path(tmp) / "y.csv"
            xp.write_bytes(x_text.encode("utf-8"))
            try:
                want = read_x_reference(xp)
            except ParseError as exc:
                yp.write_text("0\n")
                with pytest.raises(ParseError) as info:
                    load_dataset(xp, yp)
                got = info.value
                assert (type(got), str(got), got.line, got.column) == (
                    type(exc), str(exc), exc.line, exc.column
                )
            else:
                yp.write_text("0\n" * want.shape[0])
                x, _ = load_dataset(xp, yp)
                assert x.values.shape == want.shape and x.values.dtype == np.uint8
                assert x.values.tobytes() == want.astype(np.uint8).tobytes()


class TestFormatFloat:
    def test_seventeen_significant_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert float(format_float(np.pi)) == np.pi

    def test_round_trips_any_double(self):
        rng = np.random.default_rng(0)
        for v in rng.normal(scale=1e6, size=50):
            assert float(format_float(v)) == v


class TestJson:
    def test_deterministic_output(self):
        payload = {"b": [1.5, 2], "a": {"x": True, "y": None}}
        assert dumps_json(payload) == dumps_json(payload)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_json({"a": object()})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, value):
        # JSON has no spelling for NaN or the infinities
        with pytest.raises(ValueError):
            dumps_json({"a": value})


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


@st.composite
def datasets(draw):
    """Small x/y arrays of one row count; y has p >= 1 columns and edge values."""
    n, m, p = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    x = draw(hnp.arrays(np.float64, (n, m), elements=st.sampled_from([0.0, 1.0])))
    cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    return x, draw(hnp.arrays(np.float64, (n, p), elements=cells))


class TestRoundTrips:
    @given(datasets())
    @example((np.array([[0.0, 1.0, 1.0]]), np.array([[0.5, -0.0]])))
    @example((np.array([[1.0], [0.0], [1.0]]), np.array([[1e308], [5e-324], [-1.0]])))
    @example((np.array([[1.0]]), np.array([[0.0]])))
    def test_matrix_writers_match_per_cell_formulas(self, arrays):
        x, y = arrays
        # reference: one str()/"%.17g" call per cell, joined by "," and "\n"
        x_ref = "".join(",".join(str(int(v)) for v in row) + "\n" for row in x)
        y_ref = "".join(",".join("%.17g" % float(v) for v in row) + "\n" for row in y)
        with tempfile.TemporaryDirectory() as tmp:
            xp, yp = Path(tmp) / "x.csv", Path(tmp) / "y.csv"
            write_x_csv(xp, BinaryMatrix(x))
            write_y_csv(yp, CovariateTable(y))
            assert xp.read_bytes() == x_ref.encode()
            assert yp.read_bytes() == y_ref.encode()
            bx, cy = load_dataset(xp, yp)
        assert bx.values.dtype == np.uint8
        assert bx.values.tobytes() == x.astype(np.uint8).tobytes()
        assert cy.values.tobytes() == y.tobytes()

    def test_params_json_byte_stable(self, tmp_path):
        base = cb.separated_params(2, 3, p=2, seed=1)
        # the same parameters with every edge double, -0.0 among them, as coefficients
        edge = cb.ModelParams(base.row_props, base.col_props,
                              np.resize(EDGE_FLOATS, base.coefs.shape), base.means, base.covs)
        for params in (base, edge):
            path1 = tmp_path / "a.json"
            path2 = tmp_path / "b.json"
            write_params_json(path1, params)
            loaded = read_params_json(path1)
            write_params_json(path2, loaded)
            assert path1.read_bytes() == path2.read_bytes()
            np.testing.assert_array_equal(params.coefs, loaded.coefs)
            np.testing.assert_array_equal(np.signbit(params.coefs), np.signbit(loaded.coefs))
            np.testing.assert_array_equal(params.covs, loaded.covs)

    def test_params_json_zero_covariates(self, tmp_path):
        params = cb.separated_params(2, 2, p=0, seed=2)
        path = tmp_path / "p.json"
        write_params_json(path, params)
        loaded = read_params_json(path)
        assert loaded.p == 0
        assert loaded.covs.shape == (2, 0, 0)

    def test_params_json_missing_field(self, tmp_path):
        write(tmp_path / "p.json", '{"row_props": [1.0]}')
        with pytest.raises(ParseError, match="missing fields"):
            read_params_json(tmp_path / "p.json")

    def test_dataset_round_trip(self, tmp_path):
        truth = cb.separated_params(2, 2, p=2, seed=3)
        sim = cb.generate(cb.SimConfig(n=12, m=7, params=truth, seed=4))
        write_x_csv(tmp_path / "x.csv", sim.x)
        write_y_csv(tmp_path / "y.csv", sim.y)
        x, y = load_dataset(tmp_path / "x.csv", tmp_path / "y.csv")
        np.testing.assert_array_equal(x.values, sim.x.values)
        np.testing.assert_array_equal(y.values, sim.y.values)

    def test_labels_round_trip(self, tmp_path):
        labels = HardLabels([2, 1, 2], [1, 3, 2, 3])
        write_labels_csv(tmp_path / "labels.csv", labels)
        loaded = read_labels_csv(tmp_path / "labels.csv")
        np.testing.assert_array_equal(loaded.row_labels, labels.row_labels)
        np.testing.assert_array_equal(loaded.col_labels, labels.col_labels)

    def test_labels_reject_repeated_index(self, tmp_path):
        write(tmp_path / "labels.csv", "kind,index,label\nrow,1,1\nrow,1,2\ncol,1,1\n")
        with pytest.raises(ParseError, match="labels line 3 repeats row index 1") as info:
            read_labels_csv(tmp_path / "labels.csv")
        assert info.value.line == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5", "is not a JSON object"),
            ("[1, 2]", "is not a JSON object"),
            (
                '{"row_props": "a", "col_props": [1], "coefs": [[[0, 0]]], '
                '"means": [[0]], "covs": [[[1]]]}',
                "field 'row_props' is not numeric",
            ),
            (
                '{"row_props": [1], "col_props": [1], "coefs": [[[0, 0]]], '
                '"means": [[0], [0, 1]], "covs": [[[1]]]}',
                "field 'means' is not numeric",
            ),
        ],
        ids=["number", "list", "string_field", "ragged_field"],
    )
    def test_params_json_wrong_shape(self, tmp_path, text, message):
        write(tmp_path / "p.json", text)
        with pytest.raises(ParseError) as info:
            read_params_json(tmp_path / "p.json")
        assert type(info.value) is ParseError
        assert str(info.value).startswith(f"params file {tmp_path / 'p.json'} {message}")

    def test_params_json_not_utf8(self, tmp_path):
        (tmp_path / "p.json").write_bytes(b'{"row_props": [1.0\xff]}')
        with pytest.raises(ParseError, match="not valid JSON"):
            read_params_json(tmp_path / "p.json")

    def test_labels_reject_bad_header(self, tmp_path):
        write(tmp_path / "labels.csv", "a,b,c\nrow,1,1\n")
        with pytest.raises(ParseError, match="header"):
            read_labels_csv(tmp_path / "labels.csv")
