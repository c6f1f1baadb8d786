import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxlab import reports
from boxlab.anchorlab import ROW_BLOCK
from boxlab.reports import atomic_write, fmt_num, write_csv
from oracles import reference_write_csv

HEADER = ("name", "value")

FLOATS = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e-05, 999999.5, 1e300,
     -1e-300 * 1e-300, -0.5, 0.25]
)
INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, -1, 2**63 - 1, -(2**63)])
# Characters that decide quoting ("," '"' "\n" "\r"), spell "-0", or are
# otherwise plain; "%" must never act as a format directive.
STRINGS = st.text(
    st.sampled_from([",", '"', "\n", "\r", "-", "0", "a", " ", "%", "é"]), max_size=5
)
# Each column kind: the strategy of one cell, and how a column of drawn cells is typed.
KINDS = {
    "float": (FLOATS, lambda cells: np.array(cells, dtype=np.float64)),
    "int": (INT64, lambda cells: np.array(cells, dtype=np.int64)),
    "bool": (st.booleans(), lambda cells: np.array(cells, dtype=np.bool_)),
    "str": (STRINGS, list),
}


@st.composite
def typed_blocks(draw):
    """A block of typed columns: at least one column of ``n`` cells, some constant str."""
    n = draw(st.integers(0, 6), label="rows")
    columns = []
    for kind in draw(st.lists(st.sampled_from([*KINDS, "constant"]), max_size=4)):
        if kind == "constant":
            columns.append(draw(STRINGS))
        else:
            cells, typed = KINDS[kind]
            columns.append(typed(draw(st.lists(cells, min_size=n, max_size=n))))
    cells, typed = KINDS[draw(st.sampled_from(list(KINDS)))]
    at = draw(st.integers(0, len(columns)))
    columns.insert(at, typed(draw(st.lists(cells, min_size=n, max_size=n))))
    return columns


def transposed(block) -> list[tuple]:
    """The rows of ``block``, as Python cells: a constant str repeats in every row."""
    n = next(len(column) for column in block if not isinstance(column, str))
    columns = [
        [column] * n if isinstance(column, str)
        else column.tolist() if isinstance(column, np.ndarray) else column
        for column in block
    ]
    return list(zip(*columns))


def written(writer, header, table) -> bytes:
    """The bytes ``writer`` produces for ``header`` and ``table``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        writer(path, header, table)
        return path.read_bytes()


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(STRINGS, min_size=1, max_size=3),
        st.lists(typed_blocks(), max_size=4),
        st.sampled_from([1, 2, 5, ROW_BLOCK]),
    )
    @example(list(HEADER), [[[""]]], ROW_BLOCK)
    @example([""], [[["", "a", ""]], [np.array([-0.0])]], 2)
    @example(list(HEADER), [[["-0"], np.array([-0.0])], [["a,b"], "a"]], 1)
    @example(list(HEADER), [["a", np.array([1.5, -0.0]), np.array([2, 3])], ["x,y%d", [""]]], 1)
    @example(["n"], [[np.array([1e-05, 999999.5, 5e-324]), np.array([True, False, True])]], 2)
    def test_matches_the_cell_by_cell_writer(self, header, table, row_block):
        # A row block of 1, 2 or 5 rows ends inside even the small blocks drawn here.
        rows = [row for block in table for row in transposed(block)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reports, "ROW_BLOCK", row_block)
            assert written(write_csv, header, iter(table)) == written(
                reference_write_csv, header, rows
            )

    def test_row_shapes_and_quoting(self, tmp_path):
        table = [
            ["head", np.array([0.5, -0.0]), np.array([3, -7])],
            [['he"ad,x', "-0"], np.array([-0.0, 1e-05]), np.array([True, False])],
            [["", "x"]],
            ["a,b%d", np.array([], dtype=float)],
            [["a\nb"], np.array([999999.5]), ""],
        ]
        write_csv(tmp_path / "out.csv", HEADER, table)
        assert (tmp_path / "out.csv").read_bytes() == (
            b"name,value\n"
            b"head,0.5,3\n"
            b"head,0,-7\n"
            b'"he""ad,x",0,true\n'
            b"-0,1e-05,false\n"
            b'""\n'
            b"x\n"
            b'"a\nb",1e+06,\n'
        )

    @pytest.mark.parametrize(
        "block, error",
        [
            ([["a", "b"], np.array([1.0])], ValueError),
            (["constant"], ValueError),
            ([np.array(["text"])], TypeError),
            ([["a", 1]], TypeError),
        ],
    )
    def test_ragged_or_untyped_blocks_are_rejected(self, tmp_path, block, error):
        with pytest.raises(error):
            write_csv(tmp_path / "out.csv", HEADER, [block])
        assert os.listdir(tmp_path) == []

    def test_streams_row_blocks_instead_of_holding_the_file(self, tmp_path):
        # 100k rows of two float columns make a file of about 1.8 MB; the writer
        # holds one row block of it at a time, not the whole text.
        rng = np.random.default_rng(0)
        block = [rng.random(100_000), rng.random(100_000)]
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            write_csv(path, HEADER, [block])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


class TestFmtNum:
    @pytest.mark.parametrize(
        "value, text",
        [
            (-0.0, "0"),
            (-1e-300 * 1e-300, "0"),
            (np.float64(-0.0), "0"),
            (math.nan, "nan"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (1e-05, "1e-05"),
            (-0.5, "-0.5"),
            (1e300, "1e+300"),
            (123456789.0, "1.23457e+08"),
            (0.1 + 0.2, "0.3"),
            (10**30, "1e+30"),
            (7, "7"),
            (True, "1"),
        ],
    )
    def test_edge_cases(self, value, text):
        assert fmt_num(value) == text


class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path):
        target = tmp_path / "report.csv"
        atomic_write(target, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(target, "new\n\udc80")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_failing_rows_leave_the_old_csv_in_place(self, tmp_path):
        target = tmp_path / "report.csv"
        write_csv(target, HEADER, [[["a"], np.array([1])]])

        def table():
            yield [["b"], np.array([2])]
            raise RuntimeError("block source failed")

        with pytest.raises(RuntimeError):
            write_csv(target, HEADER, table())
        assert target.read_text(encoding="utf-8") == "name,value\na,1\n"
        assert os.listdir(tmp_path) == ["report.csv"]

