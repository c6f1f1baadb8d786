import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxlab import __version__
from boxlab.reports import atomic_write, fmt_num, write_csv, write_run_manifest
from oracles import reference_write_csv

HEADER = ("name", "value")

FLOATS = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 1e-05, 1e300, -1e-300 * 1e-300, -0.5, 0.25]
)
INTS = st.integers(-(10**60), 10**60) | st.sampled_from([0, -1, 2**63, -(2**63)])
NUMPY = (
    st.builds(np.float64, FLOATS)
    | st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
    | st.builds(np.bool_, st.booleans())
)
# Characters that decide quoting ("," '"' "\n" "\r"), spell "-0", or are
# otherwise plain; "%" must never act as a format directive.
STRINGS = st.text(
    st.sampled_from([",", '"', "\n", "\r", "-", "0", "a", " ", "%", "é"]), max_size=5
)
CELLS = FLOATS | INTS | st.booleans() | st.none() | NUMPY | STRINGS
ROWS = st.lists(
    st.tuples(st.sampled_from(["list", "tuple", "generator"]), st.lists(CELLS, max_size=5)),
    max_size=12,
)
CONTAINERS = {"list": list, "tuple": tuple, "generator": iter}


def written(writer, rows) -> bytes:
    """The bytes ``writer`` produces for ``rows``, each row in its own container type."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        writer(path, HEADER, (CONTAINERS[kind](cells) for kind, cells in rows))
        return path.read_bytes()


class TestWriteCsv:
    @settings(max_examples=300)
    @given(ROWS)
    @example([("list", [""])])
    @example([("tuple", [])])
    @example([("list", ["-0"]), ("list", [-0.0]), ("list", ["a,b"]), ("list", ["a"])])
    @example([("tuple", ["a", 1.5, 2]), ("tuple", ["x,y", -0.0, 3]), ("tuple", ["b", 0.5, 4])])
    def test_matches_the_cell_by_cell_writer(self, rows):
        assert written(write_csv, rows) == written(reference_write_csv, rows)

    def test_row_shapes_and_quoting(self, tmp_path):
        rows = [
            ("head", 0.5, 3),
            ('he"ad,x', -0.0, 4),
            ("-0", 1e-05, -7),
            (True, None, np.float64(-0.0)),
            ("",),
            (),
            ("a\nb", "c\rd", ""),
        ]
        write_csv(tmp_path / "out.csv", HEADER, rows)
        assert (tmp_path / "out.csv").read_bytes() == (
            b"name,value\n"
            b"head,0.5,3\n"
            b'"he""ad,x",0,4\n'
            b"-0,1e-05,-7\n"
            b"true,,0\n"
            b'""\n'
            b"\n"
            b'"a\nb",c\rd,\n'
        )

    def test_integer_too_long_to_print_fails_like_the_reference(self, tmp_path):
        for writer in (write_csv, reference_write_csv):
            with pytest.raises(ValueError):
                writer(tmp_path / "out.csv", HEADER, [(10**5000,)])


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
        write_csv(target, HEADER, [("a", 1)])

        def rows():
            yield ("b", 2)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            write_csv(target, HEADER, rows())
        assert target.read_text(encoding="utf-8") == "name,value\na,1\n"
        assert os.listdir(tmp_path) == ["report.csv"]


class TestWriteRunManifest:
    def test_line_order_and_lossless_values(self, tmp_path):
        write_run_manifest(
            tmp_path / "out",
            "anchors",
            parameters={"k": 9, "compare": True, "floor": "none", "ratio": 0.1 + 0.2,
                        "width": 8.0, "small": 1e-05},
            inputs={"manifest": None, "gt_dir": Path("corpus") / "gt"},
            seeds=(3,),
        )
        lines = (tmp_path / "out" / "run_manifest.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "command = anchors"
        assert lines[1] == f"version = {__version__}"
        assert lines[2].startswith("timestamp = ") and lines[2].endswith("+00:00")
        assert lines[3:] == [
            "seeds = 3",
            f"input.gt_dir = {Path('corpus') / 'gt'}",
            "input.manifest = ",
            "param.compare = true",
            "param.floor = none",
            "param.k = 9",
            "param.ratio = 0.30000000000000004",
            "param.small = 1e-05",
            "param.width = 8",
        ]
        assert os.listdir(tmp_path / "out") == ["run_manifest.txt"]
