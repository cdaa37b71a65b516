import csv
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regkit.data
from regkit.data import (
    ColumnSchema,
    NormalizationStats,
    _read_columns_slow,
    denormalize,
    load_csv,
    normalize,
    read_columns,
    split,
)
from regkit.errors import DataError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_disjoint_required(self):
        with pytest.raises(DataError):
            ColumnSchema(("x", "y"), ("y",))

    def test_non_empty_required(self):
        with pytest.raises(DataError):
            ColumnSchema((), ("y",))

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            ColumnSchema(("x", "x"), ("y",))


class TestLoadCsv:
    def test_rows_in_file_order(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,10\n2,20\n3,30\n")
        features, targets = load_csv(path, ColumnSchema(("x",), ("y",)))
        np.testing.assert_array_equal(features, [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(targets, [[10.0], [20.0], [30.0]])

    def test_column_selection_ignores_order(self, tmp_path):
        path = _write(tmp_path, "y,a,x\n10,0,1\n20,0,2\n")
        features, targets = load_csv(path, ColumnSchema(("x",), ("y",)))
        np.testing.assert_array_equal(features, [[1.0], [2.0]])
        np.testing.assert_array_equal(targets, [[10.0], [20.0]])

    def test_missing_column_named(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,2\n")
        with pytest.raises(DataError, match="z"):
            load_csv(path, ColumnSchema(("z",), ("y",)))

    def test_bad_cell_cites_row_and_column(self, tmp_path):
        path = _write(tmp_path, "x,y\nabc,2\n")
        with pytest.raises(DataError, match="row 2, column 'x'"):
            load_csv(path, ColumnSchema(("x",), ("y",)))

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(path, ColumnSchema(("x",), ("y",)))

    def test_non_finite_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "x,y\nnan,2\n")
        with pytest.raises(DataError, match="finite"):
            load_csv(path, ColumnSchema(("x",), ("y",)))

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, "x,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path, ColumnSchema(("x",), ("y",)))

    def test_read_columns_multi(self, tmp_path):
        path = _write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        block = read_columns(path, ("c", "a"))
        np.testing.assert_array_equal(block, [[3.0, 1.0], [6.0, 4.0]])

    def test_repeated_header_name_reads_its_first_column(self, tmp_path):
        path = _write(tmp_path, "a,b,a\n1,2,3\n")
        np.testing.assert_array_equal(read_columns(path, ("b", "a")), [[2.0, 1.0]])

    def test_wide_header_lookup_is_linear(self, tmp_path):
        # 20,000 names looked up in a 20,000-name header: a list search per
        # name makes 4e8 string comparisons, several seconds; a dict, 2e4.
        n = 20_000
        names = [f"x{i}" for i in range(n)]
        path = _write(tmp_path, ",".join(names) + "\n" + ",".join(["1"] * n) + "\n")
        start = time.perf_counter()
        block = read_columns(path, names[::-1])
        elapsed = time.perf_counter() - start
        assert block.shape == (1, n)
        assert elapsed < 1.5, f"{elapsed:.2f} s to read one row of {n} columns"


def _oracle_columns(path, columns):
    """The named columns, one ``float()`` per cell, or the DataError text."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        # Each record with the file line it ends on.
        records = [(reader.line_num, record) for record in reader]
    if not records:
        return f"{path}: file is empty"
    header = [name.strip() for name in records[0][1]]
    missing = [name for name in columns if name not in header]
    if missing:
        return f"{path}: missing columns {missing}; header has {header}"
    rows = []
    for line_no, record in records[1:]:
        if not record:
            continue
        row = []
        for name in columns:
            pos = header.index(name)
            if pos >= len(record):
                return f"{path}: row {line_no} has no column {name!r}"
            cell = record[pos].strip()
            try:
                value = float(cell)
            except ValueError:
                return f"{path}: row {line_no}, column {name!r}: cannot parse {cell!r} as a number"
            if not math.isfinite(value):
                return f"{path}: row {line_no}, column {name!r}: {cell!r} is not a finite number"
            row.append(value)
        rows.append(row)
    if not rows:
        return f"{path}: no data rows"
    return np.array(rows, dtype=np.float64)


def _oracle_load(path, schema):
    """load_csv's contract: features are read, then targets; the first error wins."""
    features = _oracle_columns(path, schema.feature_columns)
    if isinstance(features, str):
        return features
    targets = _oracle_columns(path, schema.target_columns)
    return targets if isinstance(targets, str) else (features, targets)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(_FINITE.map(repr), _FINITE.map(lambda v: "%.17g" % v))
_PAD = st.sampled_from(["", " ", "\t", " \t "])
_CELL = st.builds(lambda left, number, right: left + number + right, _PAD, _NUMBER, _PAD)
_ODD_CELL = st.sampled_from([
    "1_000", "1e400", "-1e400", "nan", "inf", "-Infinity", "", "abc", "1.2.3", "# c",
    "2#x", "0x10", "\u0663", '"-0.5"', '"1,5"', '"a,5,6,b"', '"', "\f",
])
_EXTRA_LINE = st.sampled_from(["", "", "", " ", "\t", "1", "1,2", "# c"])
# Features x0 and x1 sit on both sides of the target; q is never read.
_HEADER = "x0,q, y ,x1"
_SCHEMA = ColumnSchema(("x0", "x1"), ("y",))


@st.composite
def _csv_texts(draw):
    """Clean files, or files with one odd cell, one odd line, or both."""
    rows = [[draw(_CELL) for _ in range(4)] for _ in range(draw(st.integers(0, 4)))]
    defects = draw(st.sampled_from(["", "cell", "line", "cell+line"]))
    if rows and "cell" in defects:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, 3))] = draw(_ODD_CELL)
    lines = [",".join(row) for row in rows]
    if "line" in defects:
        lines.insert(draw(st.integers(0, len(lines))), draw(_EXTRA_LINE))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([_HEADER] + lines) + draw(st.sampled_from([newline, ""]))


class TestReaderAgreement:
    """The numpy pass and the line-by-line reader accept, return and reject alike."""

    @settings(max_examples=300)
    @given(text=_csv_texts())
    def test_load_csv_matches_per_cell_float_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "agreement.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _oracle_load(path, _SCHEMA)
        try:
            got = load_csv(path, _SCHEMA)
        except DataError as exc:
            assert str(exc) == expected
            return
        assert not isinstance(expected, str), f"accepted; the oracle says {expected!r}"
        for block, want in zip(got, expected):
            assert block.dtype == np.float64 and block.shape == want.shape
            assert block.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", [
        pytest.param("x,y\n1,2\n# c\n", id="comment_row"),
        pytest.param("x,y\n1,2#x\n", id="hash_in_cell"),
        pytest.param("x,y\n1,2\n  \n3,4\n", id="whitespace_only_row"),
        pytest.param("x,y\n1,2\n3\n", id="short_row"),
        pytest.param("x,y\n1,1e400\n", id="overflow"),
        pytest.param("x,y\n", id="header_only"),
    ])
    def test_rejected_with_the_line_by_line_message(self, tmp_path, text):
        path = _write(tmp_path, text)
        with pytest.raises(DataError) as slow:
            _read_columns_slow(path, ["x", "y"])
        with pytest.raises(DataError) as fast:
            read_columns(path, ["x", "y"])
        assert str(fast.value) == str(slow.value)

    def test_header_only_file_writes_nothing_to_stderr(self, tmp_path, capfd, recwarn):
        path = _write(tmp_path, "x,y\n")
        with pytest.raises(DataError, match="no data rows"):
            read_columns(path, ["x", "y"])
        assert capfd.readouterr().err == ""
        assert len(recwarn) == 0

    @pytest.mark.parametrize("text", [
        pytest.param("x,q,y\n1,0,1_000\n", id="underscore_digits"),
        pytest.param("x,q,y\n1,0,\u0663\n", id="non_ascii_digit"),
        pytest.param('x,q,y\n"1",0,"3"\n', id="quoted_numbers"),
        # Split on every comma, the quoted cell would shift y onto "5".
        pytest.param('x,q,y\n1,"a,5,6,b",2\n', id="quoted_commas_before_a_used_column"),
        # Read as data, the header's second line would give a row (7, 8).
        pytest.param('x,y,"q\n7,8,9"\n1,0,2\n', id="header_spanning_two_lines"),
    ])
    def test_accepted_by_the_line_by_line_reader(self, tmp_path, text):
        path = _write(tmp_path, text)
        expected = _read_columns_slow(path, ["x", "y"])
        got = read_columns(path, ["x", "y"])
        assert got.tobytes() == expected.tobytes() and got.shape == expected.shape

    def test_errors_name_the_file_line_after_a_multi_line_cell(self, tmp_path):
        # The quoted cell spans lines 2 and 3, so "oops" is on line 5, in record 4.
        path = _write(tmp_path, 'x,y\n1,"a\nb"\n2,3\noops,4\n')
        with pytest.raises(DataError, match=r"row 5, column 'x': cannot parse 'oops'"):
            read_columns(path, ["x"])

    def test_features_error_reported_before_targets_error(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,bad\nworse,2\n")
        with pytest.raises(DataError, match=r"row 3, column 'x': cannot parse 'worse'"):
            load_csv(path, ColumnSchema(("x",), ("y",)))

    def test_clean_file_skips_the_line_by_line_reader(self, tmp_path, monkeypatch):
        def refuse(path, columns):
            raise AssertionError("line-by-line reader used on a clean file")

        monkeypatch.setattr(regkit.data, "_read_columns_slow", refuse)
        path = _write(tmp_path, "x, y\r\n1.5 ,-2e3\r\n\r\n3,4\r\n")
        features, targets = load_csv(path, ColumnSchema(("x",), ("y",)))
        np.testing.assert_array_equal(features, [[1.5], [3.0]])
        np.testing.assert_array_equal(targets, [[-2000.0], [4.0]])


class TestNormalize:
    def test_two_point_column(self):
        normalized, stats = normalize(np.array([[1.0], [3.0]]), columns=("x",))
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0  # population convention
        np.testing.assert_array_equal(normalized, [[-1.0], [1.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 3)) * 5 + 2
        normalized, stats = normalize(values)
        np.testing.assert_allclose(denormalize(normalized, stats), values, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(DataError, match="'x'"):
            normalize(np.array([[5.0], [5.0], [5.0]]), columns=("x",))

    def test_reuses_supplied_stats(self):
        stats = NormalizationStats(("x",), np.array([10.0]), np.array([2.0]))
        normalized, out = normalize(np.array([[12.0], [8.0]]), stats=stats)
        assert out is stats
        np.testing.assert_array_equal(normalized, [[1.0], [-1.0]])

    def test_stats_width_checked(self):
        stats = NormalizationStats(("x",), np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            normalize(np.ones((2, 2)), stats=stats)


class TestSplit:
    def test_ten_rows_fraction_point_two(self):
        features = np.arange(10.0).reshape(10, 1)
        targets = np.arange(10.0).reshape(10, 1) * 2
        (tf, tt), (vf, vt) = split(features, targets, 0.2, seed=0)
        assert tf.shape == (8, 1) and vf.shape == (2, 1)
        assert tt.shape == (8, 1) and vt.shape == (2, 1)

    def test_half_rounds_away_from_zero(self):
        # 0.25 * 10 = 2.5 exactly, which rounds to 3 validation rows.
        data = np.arange(10.0).reshape(10, 1)
        (tf, _), (vf, _) = split(data, data, 0.25, seed=0)
        assert tf.shape == (7, 1) and vf.shape == (3, 1)

    def test_same_seed_same_split(self):
        features = np.arange(12.0).reshape(12, 1)
        targets = features * 3
        a = split(features, targets, 0.25, seed=7)
        b = split(features, targets, 0.25, seed=7)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left[0], right[0])
            np.testing.assert_array_equal(left[1], right[1])

    def test_rows_stay_paired(self):
        features = np.arange(10.0).reshape(10, 1)
        targets = features * 3
        (tf, tt), (vf, vt) = split(features, targets, 0.3, seed=1)
        np.testing.assert_array_equal(tt, tf * 3)
        np.testing.assert_array_equal(vt, vf * 3)
        merged = np.sort(np.concatenate([tf.ravel(), vf.ravel()]))
        np.testing.assert_array_equal(merged, np.arange(10.0))

    def test_extreme_fraction_clamped(self):
        features = np.array([[1.0], [2.0]])
        targets = np.array([[1.0], [2.0]])
        (tf, _), (vf, _) = split(features, targets, 0.99, seed=0)
        assert tf.shape[0] == 1 and vf.shape[0] == 1

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            split(np.ones((1, 1)), np.ones((1, 1)), 0.5, seed=0)

    def test_fraction_bounds(self):
        data = np.ones((4, 1))
        with pytest.raises(DataError):
            split(data, data, 0.0, seed=0)
        with pytest.raises(DataError):
            split(data, data, 1.0, seed=0)
