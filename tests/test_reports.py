import math
import os
import stat
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
    @example(["\r"], [[["a\rb", "\r\n", ""]], ["c\r", np.array([], dtype=int)]], 1)
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
            [["a\nb", "c\rd"], np.array([999999.5, 2.5]), ""],
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
            b'"c\rd",2.5,\n'
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


set_umask = os.umask  # TestAtomicWrite forbids the writer to call os.umask


class TestAtomicWrite:
    @pytest.fixture(autouse=True)
    def forbid_mode_calls(self, monkeypatch):
        """The writer leaves the mode to the kernel: no umask or chmod call."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the report writer called os.umask or os.chmod")

        monkeypatch.setattr(os, "umask", forbidden)
        monkeypatch.setattr(os, "chmod", forbidden)

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_new_files_get_the_mode_a_plain_open_gives(self, tmp_path, umask):
        previous = set_umask(umask)
        try:
            atomic_write(tmp_path / "report.txt", "text\n")
            write_csv(tmp_path / "report.csv", HEADER, [[["a"], np.array([1])]])
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            set_umask(previous)
        plain = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        assert plain == 0o666 & ~umask
        for name in ("report.txt", "report.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == plain, name

    def test_existing_target_is_replaced(self, tmp_path):
        target = tmp_path / "report.txt"
        atomic_write(target, "old text that is longer\n")
        atomic_write(target, "new\n")
        assert target.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["report.txt"]

    def test_missing_parent_directories_are_made(self, tmp_path):
        target = tmp_path / "a" / "b" / "report.txt"
        atomic_write(target, "text\n")
        assert target.read_bytes() == b"text\n"
        assert os.listdir(target.parent) == ["report.txt"]

    def test_a_name_clash_is_retried_and_bounded(self, tmp_path, monkeypatch):
        clash = tmp_path / f".report.txt.{bytes(6).hex()}.tmp"
        clash.write_text("someone else's\n")
        names = iter([bytes(6), bytes(6), b"\x01" * 6])
        monkeypatch.setattr(os, "urandom", lambda size: next(names))
        atomic_write(tmp_path / "report.txt", "text\n")
        assert (tmp_path / "report.txt").read_bytes() == b"text\n"
        assert clash.read_text() == "someone else's\n"
        assert sorted(os.listdir(tmp_path)) == [clash.name, "report.txt"]

        monkeypatch.setattr(os, "urandom", lambda size: bytes(6))
        monkeypatch.setattr(os, "TMP_MAX", 3)
        with pytest.raises(FileExistsError):
            atomic_write(tmp_path / "report.txt", "new\n")
        assert (tmp_path / "report.txt").read_bytes() == b"text\n"

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

