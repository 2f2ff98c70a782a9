"""CSV writing and reading: exact round trips and strict row widths."""

import math
import os

import numpy as np
import pytest

from vargrad_lab.harness.csvio import format_cell, read_csv, write_csv

HEADER = ["name", "count", "value", "flag"]


def test_format_cell_conventions():
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell(42) == "42"
    assert format_cell(float("nan")) == "nan"
    assert format_cell(float("inf")) == "inf"
    assert format_cell(float("-inf")) == "-inf"
    assert format_cell("text") == "text"
    assert format_cell(0.1) == "0.10000000000000001"  # 17 significant digits
    assert float(format_cell(0.1)) == 0.1
    assert format_cell(-0.0) == "-0"


def test_format_cell_rejects_unknown_types():
    with pytest.raises(TypeError):
        format_cell(object())


def test_format_cell_refuses_numpy_scalars_but_float64():
    # the runners hand over Python values; np.float64 is a float subclass
    for v in (np.int64(5), np.bool_(True), np.float32(0.5)):
        with pytest.raises(TypeError):
            format_cell(v)
    for v in (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.5e-310, 0.1):
        assert format_cell(np.float64(v)) == format_cell(v), v


def test_round_trip_preserves_floats_bit_exactly(tmp_path):
    tricky = [
        0.1,
        1.0 / 3.0,
        math.pi,
        5e-324,  # smallest subnormal
        1.7976931348623157e308,
        float("nan"),
        float("inf"),
        float("-inf"),
    ]
    path = tmp_path / "vals.csv"
    write_csv(path, ["value"], [(v,) for v in tricky], metadata={})
    _, header, rows = read_csv(path)
    assert header == ["value"]
    for want, row in zip(tricky, rows):
        back = row["value"]
        if math.isnan(want):
            assert math.isnan(back)
        else:
            assert back == want


def test_integral_floats_read_back_as_equal_ints(tmp_path):
    # 2.0 prints as '2' under %.17g; the reader's int-first parse returns an
    # equal integer, which is the documented contract for numeric cells
    path = tmp_path / "ints.csv"
    write_csv(path, ["x"], [(2.0,)], metadata={})
    _, _, rows = read_csv(path)
    assert rows[0]["x"] == 2 and isinstance(rows[0]["x"], int)


def test_write_and_read_with_metadata(tmp_path):
    path = tmp_path / "out.csv"
    rows = [("a", 1, 0.5, True), ("b", 2, float("nan"), False)]
    write_csv(path, HEADER, rows, metadata={"seed": 7, "experiment": "demo"})
    metadata, header, data = read_csv(path)
    assert metadata == {"seed": "7", "experiment": "demo"}
    assert header == ["name", "count", "value", "flag"]
    assert data[0] == {"name": "a", "count": 1, "value": 0.5, "flag": 1}
    assert data[1]["name"] == "b"
    assert math.isnan(data[1]["value"])
    assert data[1]["flag"] == 0


def test_output_bytes_are_deterministic(tmp_path):
    rows = [("x", 3, 1.25, False)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, HEADER, rows, metadata={"k": "v"})
    write_csv(p2, HEADER, rows, metadata={"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_line_endings_are_lf(tmp_path):
    path = tmp_path / "lf.csv"
    write_csv(path, HEADER, [("a", 1, 2.0, True)], {})
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.splitlines()[0].startswith(b"#") is False  # no metadata written


def test_metadata_lines_use_hash_prefix(tmp_path):
    path = tmp_path / "meta.csv"
    write_csv(path, ["x"], [(1,)], metadata={"alpha": 0.5})
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "# alpha = 0.5"


def test_schema_validation(tmp_path):
    path = tmp_path / "none.csv"
    with pytest.raises(ValueError, match="at least one column and one row"):
        write_csv(path, [], [()], {})
    with pytest.raises(ValueError, match="at least one column and one row"):
        write_csv(path, ["x"], [], {})
    assert not path.exists()


def test_header_order_is_kept(tmp_path):
    path = tmp_path / "order.csv"
    write_csv(path, ["b", "a"], [(1, 2), (3, 4)], {})
    assert path.read_text(encoding="utf-8") == "b,a\n1,2\n3,4\n"


def test_row_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    first = ("a", 1, 0.0, True)
    with pytest.raises(ValueError, match="row width 2 != header width 4"):
        write_csv(path, HEADER, [first, ("a", 1)], {})
    with pytest.raises(ValueError, match="row width 5 != header width 4"):
        write_csv(path, HEADER, [first, first + (9,)], {})
    assert not path.exists()  # the partly written file is removed


def test_failed_write_removes_only_a_regular_file(tmp_path, monkeypatch):
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    bad = [("a", 1, 0.0, True), ("a", 1)]
    with pytest.raises(ValueError):
        write_csv(os.devnull, HEADER, bad, {})
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", HEADER, bad, {})
    assert removed == [tmp_path / "bad.csv"]


def test_read_rejects_malformed_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no header row"):
        read_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row width"):
        read_csv(ragged)


def test_read_parses_ints_then_floats_then_strings(tmp_path):
    path = tmp_path / "types.csv"
    path.write_text("a,b,c\n3,2.5,word\n", encoding="utf-8")
    _, _, rows = read_csv(path)
    row = rows[0]
    assert row["a"] == 3 and isinstance(row["a"], int)
    assert row["b"] == 2.5 and isinstance(row["b"], float)
    assert row["c"] == "word"
