"""Columnar CSV writer: golden bytes per column kind, a row-wise property
reference, and the permissions of written files."""

import json
import os
import stat
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorpoly import SpacingReport, serialize
from cantorpoly.serialize import csv_text, fmt, render, write_csv, write_json


def rowwise_reference(header, columns) -> str:
    """The writer's contract spelled out: fmt on every value, row by row."""
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


D34 = Decimal("1.254545431750965785020477479590687E-16")
D52 = Decimal("0.9999999999999999999999999999999989994982464907914434")

GOLDEN = [
    ("float", [0.1, 1.0, 1e300, -2.5e-10],
     ["0.10000000000000001", "1", "1.0000000000000001e+300", "-2.5000000000000002e-10"]),
    ("float64 array", np.array([0.1, 1.0]), ["0.10000000000000001", "1"]),
    ("float64 scalars", [np.float64(0.1), 0.5], ["0.10000000000000001", "0.5"]),
    ("signed zero and subnormal", [-0.0, 5e-324], ["-0", "4.9406564584124654e-324"]),
    ("non-finite", [float("inf"), float("-inf"), float("nan")], ["inf", "-inf", "nan"]),
    ("int", [1, -7, 2 ** 53 + 1, 10 ** 30],
     ["1", "-7", "9007199254740993", "1000000000000000000000000000000"]),
    ("int array", np.array([3, -4], dtype=np.int64), ["3", "-4"]),
    ("range", range(1, 4), ["1", "2", "3"]),
    ("Decimal 34 and 52 digits", [D34, D52],
     ["1.254545431750965785020477479590687E-16",
      "0.9999999999999999999999999999999989994982464907914434"]),
    ("Decimal object array", np.asarray((D34, D52)),
     ["1.254545431750965785020477479590687E-16",
      "0.9999999999999999999999999999999989994982464907914434"]),
    ("None", [0.25, None], ["0.25", ""]),
    ("bool", [True, False], ["true", "false"]),
    ("bool and None", [True, False, None], ["true", "false", ""]),
    ("mixed float and Decimal", [1, 0.02, Decimal("2.56E-14")], ["1", "0.02", "2.56E-14"]),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("name,column,expected", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_column_kind(self, name, column, expected):
        text = csv_text(["i", "x"], [range(1, len(expected) + 1), column])
        body = [f"{i},{v}" for i, v in enumerate(expected, start=1)]
        assert text == "\n".join(["i,x"] + body) + "\n"

    def test_zero_rows_give_the_header_alone(self):
        assert csv_text(["n", "s", "M_n"], [[], [], []]) == "n,s,M_n\n"
        assert csv_text(["k"], [np.array([])]) == "k\n"
        assert SpacingReport((), {}).to_csv() == (
            "n,s,M_n,lower_eq1,upper_eq1,lower_eq2,upper_eq2,pass_eq1,pass_eq2,"
            "margin_lo,margin_hi\n")

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            csv_text(["a", "b"], [[1, 2, 3], [0.5, 0.25]])

    def test_header_column_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            csv_text(["a", "b"], [[1, 2]])

    def test_typed_columns_make_no_fmt_call(self, monkeypatch):
        def boom(x):
            raise AssertionError("fmt called on a typed column")

        monkeypatch.setattr(serialize, "fmt", boom)
        text = csv_text(["k", "x", "y", "z"],
                        [range(1, 3), np.array([0.5, 0.25]), [D34, D52], [4, 5]])
        assert text.splitlines()[1] == "1,0.5,1.254545431750965785020477479590687E-16,4"


_decimals = st.decimals(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(
    st.floats(), st.integers(), _decimals, st.none(), st.booleans(),
    st.builds(np.float64, st.floats()),
)


@st.composite
def _table(draw):
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 4))
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["float", "int", "decimal", "mixed",
                                     "float array", "int array", "range"]))
        if kind == "range":
            start = draw(st.integers(-5, 5))
            columns.append(range(start, start + n_rows))
            continue
        element = {"float": st.floats(), "float array": st.floats(),
                   "int": st.integers(), "decimal": _decimals, "mixed": _scalars,
                   "int array": st.integers(-2 ** 63, 2 ** 63 - 1)}[kind]
        values = draw(st.lists(element, min_size=n_rows, max_size=n_rows))
        if kind == "float array":
            values = np.array(values, dtype=np.float64)
        elif kind == "int array":
            values = np.array(values, dtype=np.int64)
        columns.append(values)
    return [f"c{j}" for j in range(n_cols)], columns


class TestRowwiseProperty:
    @settings(max_examples=300, deadline=None)
    @given(_table())
    def test_matches_fmt_row_by_row(self, table):
        header, columns = table
        assert csv_text(header, columns) == rowwise_reference(header, columns)


class TestWrittenFiles:
    @pytest.mark.parametrize("mask", [0o022, 0o027, 0o077])
    def test_mode_follows_the_umask(self, tmp_path, mask):
        previous = os.umask(mask)
        try:
            write_csv(tmp_path / "t.csv", ["k"], [range(1, 3)])
            write_json(tmp_path / "t.json", {"k": 1})
        finally:
            os.umask(previous)
        for name in ("t.csv", "t.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~mask, name
        assert (tmp_path / "t.csv").read_text() == "k\n1\n2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]


class TestRenderAndJson:
    @pytest.mark.parametrize("column", [
        np.array([0.1, 1 / 3, 1e-300, 0.5]), [Decimal("0.5"), Decimal("1E-40")],
        range(3), np.array([1, 2], dtype=np.int64), ["a", "b"], [None, True, 1.5], []])
    def test_render_is_fmt_per_value(self, column):
        values = column.tolist() if isinstance(column, np.ndarray) else list(column)
        assert render(column) == [fmt(v) for v in values]

    def test_rendered_strings_write_as_they_are(self):
        col = np.array([0.25, 1e-20])
        assert csv_text(["x"], [render(col)]) == csv_text(["x"], [col])

    def test_json_is_compact_with_sorted_keys(self, tmp_path):
        obj = {"b": [1.5, {"d": None, "c": "x"}], "a": True}
        write_json(tmp_path / "o.json", obj)
        text = (tmp_path / "o.json").read_text()
        assert text == '{"a": true, "b": [1.5, {"c": "x", "d": null}]}\n'
        assert json.loads(text) == obj
