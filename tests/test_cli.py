import argparse
import contextlib
import csv
import errno
import hashlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import boxlab
from boxlab import annotations, cli, evalcore
from boxlab.anchorlab import parse_darknet_fragment
from boxlab.datastats import extract_dims
from boxlab.reports import fmt_num
from conftest import CLI_ENV, DATA_DIR, run_cli, write_corpus
from oracles import reference_write_csv

GOLDEN_ANCHOR_FLAG = (
    "10x10,16x16,19x19,16x24,24x20,23x24,28x27,23x35,32x32,38x39,50x50,60x60,80x80"
)

WORKED_GT = DATA_DIR / "worked_example" / "gt"
WORKED_PRED = DATA_DIR / "worked_example" / "pred"


def manifest_lines_without_timestamp(path: Path) -> list[str]:
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("timestamp")
    ]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def tree_digest(root: Path) -> str:
    """sha256 of the ``sha256sum`` listing of every file under root, in sorted path order.

    For a flat directory this is ``sha256sum * | sha256sum`` run inside it.
    """
    listing = "".join(
        f"{hashlib.sha256(data).hexdigest()}  {name}\n" for name, data in tree_bytes(root).items()
    )
    return hashlib.sha256(listing.encode()).hexdigest()


class TestTopLevel:
    def test_version(self):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert out.strip() == "boxlab 0.1.0"

    def test_every_error_class_is_a_data_error(self):
        """``main`` exits 1 on a ``DataError``, so each error class must subclass it."""
        errors = [getattr(boxlab, name) for name in boxlab.__all__ if name.endswith("Error")]
        assert len(errors) == 6
        assert all(issubclass(error, annotations.DataError) for error in errors)

    def test_no_command_is_a_usage_error(self):
        code, _, err = run_cli()
        assert code == 2
        assert "COMMAND" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("bogus",), "argument COMMAND: invalid choice: 'bogus'"),
            (("stats",), "the following arguments are required: gt_dir"),
            (("stats", WORKED_GT, "--nope"), "unrecognized arguments: --nope"),
            (("stats", WORKED_GT, "--bins", "x"), "argument --bins: "),
            (("anchors", WORKED_GT, "--anchors", "1e-200x1"), "argument --anchors: '1e-200x1': "),
        ],
        ids=["command", "missing", "unknown", "type", "wxh"],
    )
    def test_argparse_error_is_one_usage_error_line(self, tmp_path, argv, message):
        code, out, err = run_cli(*argv, "--out", tmp_path / "out")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {message}"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["stats", "anchors", "eval", "synth"])
    def test_help_shows_defaults(self, command):
        code, out, _ = run_cli(command, "--help")
        assert code == 0
        assert "--out" in out
        if command == "anchors":
            assert "(default: 13)" in out
            assert "3,4,6" in out
        if command == "eval":
            assert "(default: 0.7)" in out


class TestImports:
    """Only ``synth`` loads ``numpy.random``; k-means seeding reproduces its stream."""

    @staticmethod
    def loads_numpy_random(*argv) -> bool:
        """Whether ``cli.main(argv)``, or with no argv ``import numpy``, loads it."""
        probe = (
            "import sys, numpy\n"
            "if sys.argv[1:]:\n"
            "    from boxlab import cli\n"
            "    assert cli.main(sys.argv[1:]) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, *map(str, argv)],
            capture_output=True, text=True, env=CLI_ENV, check=True,
        )
        return done.stdout.splitlines()[-1] == "True"

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "{gt}"),
            ("eval", "{gt}", "{pred}"),
            ("anchors", "{gt}", "--compare", "--k", "3"),
            ("anchors", "{gt}", "--method", "kmeans", "--k", "3", "--layers", "3"),
            ("anchors", "{gt}", "--method", "kmeans", "--k", "3", "--layers", "3",
             "--distance", "euclidean", "--seed", str(2**100)),
            ("anchors", "{gt}", "--anchors", "10x10,20x20", "--layers", "2"),
        ],
        ids=["stats", "eval", "linefit-compare", "kmeans-iou", "kmeans-euclidean", "fixed"],
    )
    def test_command_leaves_numpy_random_unloaded(self, tmp_path, argv):
        if self.loads_numpy_random():
            pytest.skip("numpy < 2 loads numpy.random on import")
        sides = [(10, 12), (14, 20), (30, 28), (45, 60), (8, 9), (22, 17), (50, 40), (16, 33)]
        boxes = ["head 0 0 %d %d\n" % side for side in sides]
        gt = write_corpus(tmp_path / "gt", {f"img{i}": boxes[i] + boxes[-1 - i] for i in range(4)})
        pred = write_corpus(
            tmp_path / "pred", {f"img{i}": boxes[i].replace("head ", "head 0.9 ") for i in range(4)}
        )
        argv = [a.format(gt=gt, pred=pred) for a in argv]
        assert not self.loads_numpy_random(*argv, "--out", tmp_path / "out", "--quiet")

    def test_synth_loads_numpy_random(self, tmp_path):
        assert self.loads_numpy_random("synth", "--images", "2", "--out", tmp_path / "out")


class TestSynth:
    def test_writes_corpus_and_reports_counts(self, tmp_path):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            "synth", "--images", "4", "--count-mean", "6", "--count-sd", "0",
            "--seed", "5", "--out", out,
        )
        assert code == 0
        assert f"wrote 4 images, 24 boxes to {out / 'gt'}" in stdout
        gt_files = sorted(p.name for p in (out / "gt").glob("*.txt"))
        assert gt_files == ["img_0000.txt", "img_0001.txt", "img_0002.txt", "img_0003.txt"]
        assert (out / "gt" / "manifest.csv").exists()
        assert not (out / "pred").exists()

    def test_simulate_writes_predictions(self, tmp_path):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            "synth", "--images", "3", "--count-mean", "5", "--count-sd", "0",
            "--simulate", "--out", out,
        )
        assert code == 0
        assert f"wrote 15 detections to {out / 'pred'}" in stdout
        assert sorted(p.name for p in (out / "pred").glob("*.txt")) == [
            "img_0000.txt", "img_0001.txt", "img_0002.txt",
        ]

    def test_same_seed_is_byte_identical(self, tmp_path):
        argv = ["synth", "--images", "5", "--seed", "42", "--simulate", "--noise-seed", "7"]
        assert run_cli(*argv, "--out", tmp_path / "one")[0] == 0
        assert run_cli(*argv, "--out", tmp_path / "two")[0] == 0
        assert tree_bytes(tmp_path / "one" / "gt") == tree_bytes(tmp_path / "two" / "gt")
        assert tree_bytes(tmp_path / "one" / "pred") == tree_bytes(tmp_path / "two" / "pred")
        assert manifest_lines_without_timestamp(
            tmp_path / "one" / "run_manifest.txt"
        ) == manifest_lines_without_timestamp(tmp_path / "two" / "run_manifest.txt")

    @pytest.mark.parametrize(
        "jitter, pred_digest",
        [
            ("2", "fe98ccffaa94824a19b963435487b0ae329c9cad27a35ffb45016c6514c8d65d"),
            ("500", "db32a43acbf59f4dbd901177aa1d5c16d256a6cbfec1bcf1317ebd5af536f8c5"),
        ],
    )
    def test_simulated_corpus_bytes_are_pinned(self, tmp_path, jitter, pred_digest):
        code, _, err = run_cli(
            "synth", "--images", "12", "--seed", "42", "--simulate", "--miss-rate", "0.1",
            "--fp-rate", "5", "--jitter", jitter, "--noise-seed", "1", "--out", tmp_path,
        )
        assert code == 0, err
        gt_digest = "9278ac417d082d4207e2d935721a6d776380f2adf1d0d82661d372141e813cd3"
        assert tree_digest(tmp_path / "gt") == gt_digest
        assert tree_digest(tmp_path / "pred") == pred_digest

    def test_manifest_records_seeds_and_parameters(self, tmp_path):
        out = tmp_path / "run"
        run_cli("synth", "--images", "2", "--seed", "42", "--simulate",
                "--noise-seed", "1", "--out", out)
        text = (out / "run_manifest.txt").read_text(encoding="utf-8")
        assert "command = synth" in text
        assert "seeds = 42,1" in text
        assert "param.images = 2" in text
        assert "param.simulate = true" in text

    def test_zero_images_rejected_by_argparse(self, tmp_path):
        code, _, err = run_cli("synth", "--images", "0", "--out", tmp_path)
        assert code == 2
        assert "must be >= 1" in err

    def test_frame_smaller_than_boxes_is_a_usage_error(self, tmp_path):
        code, _, err = run_cli(
            "synth", "--images", "1", "--image-width", "50", "--out", tmp_path
        )
        assert code == 2
        assert "usage error" in err
        assert "too small" in err

    @pytest.mark.parametrize("side", ["1e17", "1e300"])
    def test_side_above_2_to_the_50_is_a_usage_error(self, tmp_path, side):
        code, _, err = run_cli(
            "synth", "--images", "3", "--image-width", side, "--image-height", side,
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert err.startswith("usage error: ") and "at most 2**50" in err
        assert not (tmp_path / "out").exists()

    def test_jitter_larger_than_the_frame_writes_valid_predictions(self, tmp_path):
        code, _, err = run_cli(
            "synth", "--images", "20", "--simulate", "--jitter", "1e16", "--out", tmp_path
        )
        assert code == 0, err
        gt = annotations.load_dataset(tmp_path / "gt", tmp_path / "gt" / "manifest.csv")
        predictions = annotations.load_predictions_dir(tmp_path / "pred")
        assert sum(len(p) for p in predictions.values()) == gt.total_boxes
        assert max(p.edges.max(initial=0) for p in predictions.values()) <= 1200

    def test_used_out_directory_is_a_usage_error(self, tmp_path):
        out = tmp_path / "d"
        code, _, err = run_cli(
            "synth", "--out", out, "--images", "30", "--seed", "1", "--simulate",
            "--miss-rate", "0.1", "--fp-rate", "2", "--jitter", "2",
        )
        assert code == 0, err
        before = tree_bytes(out)
        code, stdout, err = run_cli(
            "synth", "--out", out, "--images", "10", "--seed", "2", "--simulate"
        )
        assert code == 2
        assert err == f"usage error: {out / 'gt'} already holds a corpus; give synth a new --out\n"
        assert stdout == ""
        assert tree_bytes(out) == before

    @pytest.mark.parametrize(
        "leftover", ["gt/img_0000.txt", "gt/manifest.csv", "pred/img_0007.txt"]
    )
    def test_any_corpus_file_left_in_out_is_a_usage_error(self, tmp_path, leftover):
        (tmp_path / leftover).parent.mkdir()
        (tmp_path / leftover).write_text("", encoding="utf-8")
        code, _, err = run_cli("synth", "--out", tmp_path, "--images", "2")
        assert code == 2
        assert f"{tmp_path / Path(leftover).parent} already holds a corpus" in err
        assert tree_bytes(tmp_path) == {leftover: b""}

    def test_out_with_empty_corpus_directories_is_accepted(self, tmp_path):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        (tmp_path / "pred" / "notes.md").write_text("kept", encoding="utf-8")
        code, _, err = run_cli("synth", "--out", tmp_path, "--images", "2", "--simulate")
        assert code == 0, err
        assert (tmp_path / "pred" / "notes.md").read_text(encoding="utf-8") == "kept"

    def test_inverted_confidence_range_is_a_usage_error(self, tmp_path):
        code, _, err = run_cli(
            "synth", "--images", "1", "--tp-conf", "0.9", "0.5", "--out", tmp_path
        )
        assert code == 2
        assert "tp_confidence" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--width-min", "1e-14", "--width-max", "1e-14"],
            ["--image-width", "1e15", "--width-min", "0.1", "--width-max", "0.1"],
            ["--image-width", "1e15", "--width-min", "0.05", "--width-max", "0.05"],
        ],
        ids=["below-a-float-step", "wide-frame", "wide-frame-below-a-float-step"],
    )
    def test_boxes_thinner_than_a_float_step_keep_a_positive_width(self, tmp_path, argv):
        code, _, err = run_cli("synth", "--images", "2", *argv, "--out", tmp_path)
        assert code == 0, err
        gt = annotations.load_dataset(tmp_path / "gt", tmp_path / "gt" / "manifest.csv")
        assert gt.total_boxes > 0
        for ann in gt:
            left, top, right, bottom = ann.edges.T
            assert (left < right).all() and (top < bottom).all()
            assert (left >= 0).all() and (right <= ann.width).all()


class TestStats:
    def corpus(self, tmp_path):
        return write_corpus(
            tmp_path / "gt",
            {
                "a": "head 0 0 30 30\nhead 40 40 70 70\nhead 0 40 30 70\n",
                "b": "head 0 0 10 10\n",
            },
        )

    def test_writes_expected_files_and_summary(self, tmp_path):
        gt = self.corpus(tmp_path)
        manifest = tmp_path / "dims.csv"
        manifest.write_text("image_id,width,height\na,100,100\nb,100,100\n")
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            "stats", gt, "--manifest", manifest, "--bins", "4", "--out", out
        )
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "count_hist.csv", "count_hist.svg", "coverage_hist.csv", "coverage_hist.svg",
            "per_image.csv", "run_manifest.txt", "summary.csv",
        ]
        assert "images = 2" in stdout
        assert "total heads = 4" in stdout
        assert "mean count = 2" in stdout
        summary = (out / "summary.csv").read_text(encoding="utf-8")
        assert "total_heads,4" in summary
        assert "mean_count,2" in summary
        per_image = (out / "per_image.csv").read_text(encoding="utf-8")
        assert "a,3,2700,0.27,false," in per_image

    def test_outliers_flagged_in_stdout_and_csv(self, tmp_path):
        gt = self.corpus(tmp_path)
        manifest = tmp_path / "dims.csv"
        manifest.write_text("image_id,width,height\na,100,100\nb,100,100\n")
        code, stdout, _ = run_cli(
            "stats", gt, "--manifest", manifest, "--out", tmp_path / "out"
        )
        assert code == 0
        assert "outlier b: only 1 heads, below minimum 3" in stdout
        assert "outlier b: coverage 1.0% below 5.0%" in stdout
        per_image = (tmp_path / "out" / "per_image.csv").read_text(encoding="utf-8")
        assert "only 1 heads, below minimum 3; coverage 1.0% below 5.0%" in per_image

    def test_quiet_suppresses_stdout(self, tmp_path):
        gt = self.corpus(tmp_path)
        code, stdout, _ = run_cli("stats", gt, "--quiet", "--out", tmp_path / "out")
        assert code == 0
        assert stdout == ""

    def test_empty_directory_is_a_data_error(self, tmp_path):
        empty = tmp_path / "gt"
        empty.mkdir()
        code, _, err = run_cli("stats", empty, "--out", tmp_path / "out")
        assert code == 1
        assert "no annotation files found" in err

    def test_malformed_file_names_file_and_line(self, tmp_path):
        gt = write_corpus(tmp_path / "gt", {"bad": "head 5 5 5 9\n"})
        code, _, err = run_cli("stats", gt, "--out", tmp_path / "out")
        assert code == 1
        assert "bad.txt" in err
        assert "line 1" in err

    def test_missing_directory_is_a_data_error(self, tmp_path):
        code, _, err = run_cli("stats", tmp_path / "ghost", "--out", tmp_path / "out")
        assert code == 1
        assert "not a directory" in err

    BAR = re.compile(r'<rect x="([^"]+)" y="[^"]+" width="[^"]+" height="([^"]+)"[^>]*'
                     r'fill-opacity="0.8"')

    @pytest.mark.parametrize("bins", [5, 1])
    def test_each_chart_draws_one_bar_per_nonzero_csv_row(self, tmp_path, bins):
        # 1, 1, 1, 5 and 10 heads of 10x10 px on 100x100 images: in five bins,
        # the second and fourth bin of both histograms are empty.
        heads = dict(zip("abcde", (1, 1, 1, 5, 10)))
        gt = write_corpus(tmp_path / "gt", {
            image_id: "".join(f"head {10 * j} 0 {10 * j + 10} 10\n" for j in range(n))
            for image_id, n in heads.items()
        })
        manifest = tmp_path / "dims.csv"
        manifest.write_text("image_id,width,height\n" + "".join(f"{i},100,100\n" for i in heads))
        out = tmp_path / "out"
        code, _, _ = run_cli("stats", gt, "--manifest", manifest, "--bins", bins, "--out", out)
        assert code == 0
        for name in ("count_hist", "coverage_hist"):
            with open(out / f"{name}.csv", newline="", encoding="utf-8") as fh:
                rows = [(float(left), int(count)) for left, _, count in list(csv.reader(fh))[1:]]
            assert [count for _, count in rows] == ([3, 0, 1, 0, 1] if bins == 5 else [5])
            bars = [tuple(map(float, bar)) for bar in self.BAR.findall(
                (out / f"{name}.svg").read_text(encoding="utf-8"))]
            drawn = [count for _, count in rows if count]
            assert len(bars) == len(drawn)
            # In row order: left to right, each as tall as its count.
            assert [x for x, _ in bars] == sorted({x for x, _ in bars})
            per_image = bars[0][1] / drawn[0]
            assert [h for _, h in bars] == pytest.approx([n * per_image for n in drawn], rel=1e-5)

    def test_negative_min_count_is_a_usage_error(self, tmp_path):
        gt = self.corpus(tmp_path)
        code, _, err = run_cli("stats", gt, "--min-count", "-3", "--out", tmp_path / "out")
        assert code == 2
        assert "must be >= 0" in err
        assert not (tmp_path / "out").exists()


class TestAnchors:
    def corpus(self, tmp_path):
        lines = []
        for i in range(30):
            w = 10 + 2 * i
            lines.append(f"head {i} {i} {i + w} {i + w}\n")
        return write_corpus(tmp_path / "gt", {"a": "".join(lines)})

    def test_linefit_run_writes_files_and_summary(self, tmp_path):
        gt = self.corpus(tmp_path)
        out = tmp_path / "out"
        code, stdout, _ = run_cli("anchors", gt, "--out", out)
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "anchors.csv", "coverage.csv", "dims_anchors.csv", "dims_anchors.svg",
            "run_manifest.txt",
        ]
        assert "anchors (linefit) = " in stdout
        assert "mean_best_iou = " in stdout
        assert "recall@0.5 = " in stdout

    def test_kmeans_method_selected(self, tmp_path):
        gt = self.corpus(tmp_path)
        code, stdout, _ = run_cli(
            "anchors", gt, "--method", "kmeans", "--k", "4", "--layers", "2,2",
            "--out", tmp_path / "out",
        )
        assert code == 0
        assert "anchors (kmeans) = " in stdout
        anchors_csv = (tmp_path / "out" / "anchors.csv").read_text(encoding="utf-8")
        assert len(anchors_csv.splitlines()) == 1 + 4

    def test_compare_reports_both_methods(self, tmp_path):
        gt = self.corpus(tmp_path)
        code, stdout, _ = run_cli(
            "anchors", gt, "--compare", "--k", "9", "--out", tmp_path / "out"
        )
        assert code == 0
        assert "compare kmeans: mean_best_iou = " in stdout
        coverage_csv = (tmp_path / "out" / "coverage.csv").read_text(encoding="utf-8")
        lines = coverage_csv.splitlines()
        assert lines[0] == "method,anchor_count,mean_best_iou,recall_at_threshold,threshold"
        assert [line.split(",")[0] for line in lines[1:]] == ["kmeans", "linefit"]

    def test_injected_anchors_emit_the_golden_darknet_config(self, tmp_path, data_dir):
        gt = self.corpus(tmp_path)
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            "anchors", gt, "--anchors", GOLDEN_ANCHOR_FLAG, "--emit-darknet", "--out", out
        )
        assert code == 0
        assert "anchors (fixed) = 10x10, 16x16," in stdout
        golden = (data_dir / "darknet_golden.cfg").read_bytes()
        assert (out / "darknet.cfg").read_bytes() == golden

    @pytest.mark.parametrize("flag", ["--anchors", "--floor"])
    def test_overflowing_anchor_area_is_a_usage_error(self, tmp_path, flag):
        gt = self.corpus(tmp_path)
        code, _, err = run_cli(
            "anchors", gt, flag, "1e200x1e200", "--compare", "--out", tmp_path / "out"
        )
        assert code == 2
        assert "'1e200x1e200': sides must be positive and finite, in [2**-50, 2**50]" in err
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--anchors", "--floor"])
    def test_underflowing_anchor_area_is_a_usage_error(self, tmp_path, flag):
        gt = self.corpus(tmp_path)
        code, _, err = run_cli(
            "anchors", gt, flag, "1e-200x1e-200", "--compare", "--out", tmp_path / "out"
        )
        assert code == 2
        assert "'1e-200x1e-200': sides must be positive and finite, in [2**-50, 2**50]" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "method", [[], ["--method", "kmeans", "--k", "2", "--layers", "2"]],
        ids=["linefit", "kmeans"],
    )
    def test_boxes_of_underflowing_area_are_a_data_error(self, tmp_path, method):
        gt = write_corpus(tmp_path / "gt", {
            "img": "head 0 0 1e-200 1e-200\nhead 0 0 2e-200 2e-200\nhead 0 0 3e-200 1e-200\n"
        })
        code, _, err = run_cli("anchors", gt, *method, "--out", tmp_path / "out")
        assert code == 1
        assert err == (
            f"error: {gt / 'img.txt'}: line 1: box outside the coordinate domain "
            "(edges at most 2**50, sides at least 2**-50): (0.0, 0.0, 1e-200, 1e-200)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_sub_micro_anchor_round_trips_through_darknet_cfg(self, tmp_path):
        gt = self.corpus(tmp_path)
        out = tmp_path / "out"
        code, _, err = run_cli(
            "anchors", gt, "--anchors", "0.0000004x5,3x3", "--emit-darknet", "--out", out
        )
        assert code == 0, err
        text = (out / "darknet.cfg").read_text(encoding="utf-8")
        assert "anchors = 4e-07,5, 3,3\n" in text
        assert parse_darknet_fragment(text).anchors.pairs() == [(4e-07, 5.0), (3.0, 3.0)]

    def test_layer_mismatch_is_a_usage_error(self, tmp_path):
        gt = self.corpus(tmp_path)
        code, _, err = run_cli(
            "anchors", gt, "--layers", "3,3", "--out", tmp_path / "out"
        )
        assert code == 2
        assert "usage error" in err
        assert "sums to 6" in err

    def test_non_positive_layer_is_a_usage_error(self, tmp_path):
        gt = self.corpus(tmp_path)
        code, _, err = run_cli(
            "anchors", gt, "--method", "kmeans", "--k", "4", "--layers", "0,4",
            "--out", tmp_path / "out",
        )
        assert code == 2
        assert "positive" in err
        assert not (tmp_path / "out").exists()

    def test_k_zero_rejected_by_argparse(self, tmp_path):
        gt = self.corpus(tmp_path)
        code, _, err = run_cli("anchors", gt, "--k", "0", "--out", tmp_path / "out")
        assert code == 2
        assert "must be >= 1" in err

    def test_n_total_not_above_n_line_is_a_usage_error(self, tmp_path):
        gt = self.corpus(tmp_path)
        code, _, err = run_cli(
            "anchors", gt, "--n-line", "9", "--n-total", "9", "--out", tmp_path / "out"
        )
        assert code == 2
        assert "usage error" in err
        assert "--n-total must be >= --n-line + 1" in err
        assert not (tmp_path / "out").exists()
        code, _, err = run_cli(
            "anchors", gt, "--method", "kmeans", "--n-line", "9", "--n-total", "9",
            "--out", tmp_path / "kmeans",
        )
        assert code == 0, err

    def test_boxless_corpus_is_a_data_error(self, tmp_path):
        gt = write_corpus(tmp_path / "gt", {"a": ""})
        code, _, err = run_cli("anchors", gt, "--out", tmp_path / "out")
        assert code == 1
        assert "no boxes" in err

    def test_same_inputs_reproduce_outputs(self, tmp_path):
        gt = self.corpus(tmp_path)
        run_cli("anchors", gt, "--compare", "--emit-darknet", "--out", tmp_path / "one")
        run_cli("anchors", gt, "--compare", "--emit-darknet", "--out", tmp_path / "two")
        one = tree_bytes(tmp_path / "one")
        two = tree_bytes(tmp_path / "two")
        del one["run_manifest.txt"], two["run_manifest.txt"]
        assert one == two


class TestEval:
    def test_worked_example_summary(self, tmp_path):
        out = tmp_path / "out"
        code, stdout, _ = run_cli("eval", WORKED_GT, WORKED_PRED, "--out", out)
        assert code == 0
        assert "mAP = 0.8333" in stdout
        assert "R^2 = n/a" in stdout
        report = (out / "report.csv").read_text(encoding="utf-8")
        assert "map,0.833333" in report
        assert "ap.head,0.833333" in report
        assert "r_squared,n/a" in report
        assert "total_gt_boxes,2" in report
        assert "total_detections,3" in report

    def test_worked_example_curve_counts_and_overlay(self, tmp_path):
        out = tmp_path / "out"
        run_cli("eval", WORKED_GT, WORKED_PRED, "--out", out)
        pr = (out / "pr_curve.csv").read_text(encoding="utf-8").splitlines()
        assert pr[0] == "class,rank,confidence,precision,recall"
        assert pr[1] == "head,1,0.9,1,0.5"
        assert pr[2] == "head,2,0.8,0.5,0.5"
        assert pr[3] == "head,3,0.7,0.666667,1"
        counts = (out / "counts.csv").read_text(encoding="utf-8")
        assert "img_0,2,3" in counts
        overlay = (out / "overlays" / "img_0.csv").read_text(encoding="utf-8")
        assert "gt,head,,0,0,10,10,matched,0" in overlay
        assert "gt,head,,20,20,30,30,matched,2" in overlay
        assert "pred,head,0.9,0,0,10,10,tp,0" in overlay
        assert "pred,head,0.8,21,21,31,31,fp," in overlay
        assert "pred,head,0.7,20,20,30,30,tp,1" in overlay
        assert (out / "pr_curve.svg").exists()
        assert (out / "counts.svg").exists()

    def test_missing_prediction_file_tolerated(self, tmp_path):
        gt = write_corpus(
            tmp_path / "gt", {"a": "head 0 0 10 10\n", "b": "head 0 0 10 10\n"}
        )
        pred = write_corpus(tmp_path / "pred", {"a": "head 0.9 0 0 10 10\n"})
        code, stdout, _ = run_cli("eval", gt, pred, "--out", tmp_path / "out")
        assert code == 0
        assert "mAP = 0.5000" in stdout
        counts = (tmp_path / "out" / "counts.csv").read_text(encoding="utf-8")
        assert "b,1,0" in counts

    def test_unknown_prediction_image_is_a_data_error(self, tmp_path):
        gt = write_corpus(tmp_path / "gt", {"a": "head 0 0 10 10\n"})
        pred = write_corpus(
            tmp_path / "pred",
            {"a": "head 0.9 0 0 10 10\n", "ghost": "head 0.9 0 0 10 10\n"},
        )
        code, _, err = run_cli("eval", gt, pred, "--out", tmp_path / "out")
        assert code == 1
        assert "'ghost'" in err

    def test_malformed_prediction_is_a_data_error(self, tmp_path):
        gt = write_corpus(tmp_path / "gt", {"a": "head 0 0 10 10\n"})
        pred = write_corpus(tmp_path / "pred", {"a": "head 1.5 0 0 10 10\n"})
        code, _, err = run_cli("eval", gt, pred, "--out", tmp_path / "out")
        assert code == 1
        assert "a.txt" in err
        assert "confidence" in err

    def test_zero_iou_threshold_rejected_by_argparse(self, tmp_path):
        code, _, err = run_cli(
            "eval", WORKED_GT, WORKED_PRED, "--iou-threshold", "0", "--out", tmp_path
        )
        assert code == 2
        assert "must be > 0" in err

    def test_identity_r2_mode_is_recorded(self, tmp_path):
        gt = write_corpus(
            tmp_path / "gt", {"a": "head 0 0 10 10\n", "b": "head 0 0 10 10\nhead 20 0 30 10\n"}
        )
        pred = write_corpus(
            tmp_path / "pred",
            {"a": "head 0.9 0 0 10 10\n", "b": "head 0.9 0 0 10 10\nhead 0.8 20 0 30 10\n"},
        )
        out = tmp_path / "out"
        code, stdout, _ = run_cli("eval", gt, pred, "--r2-mode", "identity", "--out", out)
        assert code == 0
        assert "R^2 = 1.0000" in stdout
        report = (out / "report.csv").read_text(encoding="utf-8")
        assert "r2_mode,identity" in report

    def test_byte_order_mark_in_ground_truth_is_skipped(self, tmp_path):
        gt = write_corpus(
            tmp_path / "gt", {"a": "\ufeffhead 0 0 10 10\n", "b": "\ufeffhead 0 0 20 20\n"}
        )
        pred = write_corpus(
            tmp_path / "pred", {"a": "head 0.9 0 0 10 10\n", "b": "head 0.9 0 0 20 20\n"}
        )
        code, stdout, _ = run_cli("eval", gt, pred, "--out", tmp_path / "out")
        assert code == 0
        assert "mAP = 1.0000" in stdout

    def test_prediction_directory_without_files_is_a_data_error(self, tmp_path):
        (tmp_path / "pred").mkdir()
        code, _, err = run_cli("eval", WORKED_GT, tmp_path / "pred", "--out", tmp_path / "out")
        assert code == 1
        assert "no prediction files found" in err

    def test_multi_class_overlays_reuse_the_evaluation_matches(self, tmp_path, monkeypatch):
        gt = write_corpus(
            tmp_path / "gt",
            {
                "a": "head 0 0 10 10\nleaf 20 20 30 30\nhead 40 40 50 50\n",
                "b": "head 0 0 10 10\n",
                "c": "",
            },
        )
        pred = write_corpus(
            tmp_path / "pred",
            {
                "a": "leaf 0.9 20 20 30 30\nhead 0.8 40 40 50 50\nhead 0.7 0 0 10 10\n"
                "stem 0.6 0 0 10 10\nhead 0.5 30 0 40 10\n",
                "b": "leaf 0.8 0 0 10 10\nhead 0.9 0 0 10 10\n",
                "c": "head 0.4 0 0 10 10\n",
            },
        )
        calls = []
        original = evalcore._greedy_matches

        def counting(*args, **kwargs):
            calls.append(args[0].image_id)
            return original(*args, **kwargs)

        monkeypatch.setattr(evalcore, "_greedy_matches", counting)
        out = tmp_path / "out"
        assert cli.main(["eval", str(gt), str(pred), "--out", str(out), "--quiet"]) == 0

        header = "kind,class,confidence,left,top,right,bottom,verdict,partner_index\n"
        overlays = {
            image_id: (out / "overlays" / f"{image_id}.csv").read_text(encoding="utf-8")
            for image_id in "abc"
        }
        # Interleaved classes: partners are indices into the image's own file order.
        assert overlays["a"] == header + (
            "gt,head,,0,0,10,10,matched,2\n"
            "gt,leaf,,20,20,30,30,matched,0\n"
            "gt,head,,40,40,50,50,matched,1\n"
            "pred,leaf,0.9,20,20,30,30,tp,1\n"
            "pred,head,0.8,40,40,50,50,tp,2\n"
            "pred,head,0.7,0,0,10,10,tp,0\n"
            "pred,stem,0.6,0,0,10,10,ignored,\n"
            "pred,head,0.5,30,0,40,10,fp,\n"
        )
        # 'leaf' has no ground truth in b: the overlay ignores the detection...
        assert overlays["b"] == header + (
            "gt,head,,0,0,10,10,matched,1\n"
            "pred,leaf,0.8,0,0,10,10,ignored,\n"
            "pred,head,0.9,0,0,10,10,tp,0\n"
        )
        # ...while AP ranks it as a false positive.
        pr = (out / "pr_curve.csv").read_text(encoding="utf-8").splitlines()
        assert [row for row in pr if row.startswith("leaf,")] == [
            "leaf,1,0.9,1,1",
            "leaf,2,0.8,0.5,1",
        ]
        assert overlays["c"] == header + "pred,head,0.4,0,0,10,10,ignored,\n"
        # One class-aware matching pass: each ground-truth image is matched exactly once.
        assert sorted(calls) == ["a", "b", "c"]

    def test_class_names_with_a_quote_and_a_comma_round_trip(self, tmp_path):
        name = 'he"ad,x'
        gt = write_corpus(
            tmp_path / "gt",
            {
                "a": f"{name} 0 0 10 10\nleaf 20 20 30 30\n",
                "b": f"leaf 0 0 10 10\n{name} 40 40 50 50\n",
            },
        )
        pred = write_corpus(
            tmp_path / "pred",
            {
                "a": f"{name} 0.9 0 0 10 10\nleaf 0.4 20 20 30 30\n",
                "b": f"{name} 0.8 40 40 50 52\n",
            },
        )
        out = tmp_path / "out"
        code, _, _ = run_cli("eval", gt, pred, "--out", out, "--quiet")
        assert code == 0

        def rows(path):
            with open(out / path, encoding="utf-8", newline="") as fh:
                return list(csv.reader(fh))

        report = rows("report.csv")
        assert report[:4] == [["metric", "value"], ["map", "0.75"], [f"ap.{name}", "1"],
                              ["ap.leaf", "0.5"]]
        assert '"ap.he""ad,x",1\n' in (out / "report.csv").read_text(encoding="utf-8")
        assert rows("pr_curve.csv") == [
            ["class", "rank", "confidence", "precision", "recall"],
            [name, "1", "0.9", "1", "0.5"],
            [name, "2", "0.8", "1", "1"],
            ["leaf", "1", "0.4", "1", "0.5"],
        ]
        assert rows("overlays/a.csv")[1:] == [
            ["gt", name, "", "0", "0", "10", "10", "matched", "0"],
            ["gt", "leaf", "", "20", "20", "30", "30", "matched", "1"],
            ["pred", name, "0.9", "0", "0", "10", "10", "tp", "0"],
            ["pred", "leaf", "0.4", "20", "20", "30", "30", "tp", "1"],
        ]

    def test_image_ids_that_need_quoting_match_the_reference_writer(self, tmp_path):
        image_id = 'a,"b%'
        gt = write_corpus(tmp_path / "gt", {image_id: "head 0 0 10 10\nhead 20 20 30 30\n",
                                            "plain": "head 0 0 10 10\n"})
        pred = write_corpus(tmp_path / "pred", {image_id: "head 0.9 0 0 10 10\n",
                                                "plain": "head 0.8 0 0 10 10\nhead 0.3 5 5 9 9\n"})
        out = tmp_path / "out"
        assert run_cli("stats", gt, "--out", out, "--quiet")[0] == 0
        assert run_cli("eval", gt, pred, "--out", out, "--quiet")[0] == 0

        def reference(header, rows) -> bytes:
            reference_write_csv(tmp_path / "reference.csv", header, rows)
            return (tmp_path / "reference.csv").read_bytes()

        per_image_header = ("image_id", "head_count", "total_box_area", "coverage_fraction",
                            "dims_inferred", "outlier_reasons")
        assert (out / "per_image.csv").read_bytes() == reference(per_image_header, [
            (image_id, 2, 200.0, 200 / 900, True, "only 2 heads, below minimum 3"),
            ("plain", 1, 100.0, 1.0, True, "only 1 heads, below minimum 3"),
        ])
        assert (out / "counts.csv").read_bytes() == reference(
            ("image_id", "true_count", "predicted_count"), [(image_id, 2, 1), ("plain", 1, 1)]
        )
        overlay_header = ("kind", "class", "confidence", "left", "top", "right", "bottom",
                          "verdict", "partner_index")
        assert (out / "overlays" / f"{image_id}.csv").read_bytes() == reference(overlay_header, [
            ("gt", "head", "", 0.0, 0.0, 10.0, 10.0, "matched", 0),
            ("gt", "head", "", 20.0, 20.0, 30.0, 30.0, "missed", ""),
            ("pred", "head", 0.9, 0.0, 0.0, 10.0, 10.0, "tp", 0),
        ])


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_report_files_get_the_mode_a_plain_open_gives(tmp_path, umask):
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        code, _, _ = run_cli("stats", WORKED_GT, "--out", out, "--quiet")
    finally:
        os.umask(previous)
    assert code == 0
    for name in ("per_image.csv", "count_hist.svg", "run_manifest.txt"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o666 & ~umask, name


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_corpus_files_get_the_mode_a_plain_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        code, _, _ = run_cli("synth", "--images", "2", "--simulate", "--out", tmp_path, "--quiet")
    finally:
        os.umask(previous)
    assert code == 0
    for name in ("gt/img_0000.txt", "gt/manifest.csv", "pred/img_0001.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name


def manifest_entries(manifest: Path) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in manifest.read_text(encoding="utf-8").splitlines())


def replay_argv(manifest: Path) -> list[str]:
    """Rebuild a command line from ``run_manifest.txt`` by the README's replay rule."""
    entries = manifest_entries(manifest)
    argv = [entries["command"]]
    argv += [entries[key] for key in ("input.gt_dir", "input.pred_dir") if key in entries]
    if entries.get("input.manifest"):
        argv += ["--manifest", entries["input.manifest"]]
    seeds = entries["seeds"].split(",") if entries["seeds"] else []
    for flag, seed in zip(("--seed", "--noise-seed"), seeds):
        argv += [flag, seed]
    for key, value in entries.items():
        if not key.startswith("param."):
            continue
        name = key[len("param."):]
        flag = "--" + name.replace("_", "-")
        if value == "true":
            argv.append(flag)
        elif value and value != "false":
            argv += [flag, *(value.split(",") if name in ("tp_conf", "fp_conf") else [value])]
    return argv


class TestManifestReplay:
    """Re-running a command from its manifest reproduces every other file."""

    def assert_replays(self, tmp_path, *argv):
        first, second = tmp_path / "first", tmp_path / "second"
        code, _, err = run_cli(*argv, "--out", first)
        assert code == 0, err
        code, _, err = run_cli(*replay_argv(first / "run_manifest.txt"), "--out", second)
        assert code == 0, err
        assert manifest_lines_without_timestamp(
            first / "run_manifest.txt"
        ) == manifest_lines_without_timestamp(second / "run_manifest.txt")
        one, two = tree_bytes(first), tree_bytes(second)
        del one["run_manifest.txt"], two["run_manifest.txt"]
        assert one == two

    def test_synth(self, tmp_path):
        self.assert_replays(
            tmp_path, "synth", "--images", "3", "--count-mean", "8", "--count-sd", "2",
            "--seed", "4", "--simulate", "--noise-seed", "9", "--width-min", "8.1234567",
            "--tp-conf", "0.51234567", "1", "--jitter", "1.5", "--fp-rate", "2",
        )

    def test_synth_without_simulate(self, tmp_path):
        self.assert_replays(
            tmp_path, "synth", "--images", "3", "--count-mean", "8", "--seed", "4",
            "--width-min", "8.1234567", "--slope", "0.912345678", "--class-name", "leaf",
        )

    def test_anchors_given_verbatim(self, tmp_path):
        gt = TestAnchors().corpus(tmp_path)
        self.assert_replays(
            tmp_path, "anchors", gt, "--anchors", "10x10,20.1234567x22.5,40x41", "--emit-darknet"
        )

    def test_anchors_compared_with_a_precise_floor(self, tmp_path):
        # The config fragment writes anchors losslessly, so the precise floor
        # shows there as given.
        gt = TestAnchors().corpus(tmp_path)
        self.assert_replays(
            tmp_path, "anchors", gt, "--floor", "10.1234567x10", "--compare", "--k", "5",
            "--seed", "3", "--emit-darknet",
        )

    def test_stats(self, tmp_path):
        gt = TestStats().corpus(tmp_path)
        manifest = tmp_path / "dims.csv"
        manifest.write_text("image_id,width,height\na,100,100\nb,100,100\n")
        self.assert_replays(
            tmp_path, "stats", gt, "--manifest", manifest, "--min-count", "2",
            "--min-coverage", "0.123456789", "--bins", "7",
        )

    def test_relative_inputs_replay_from_another_directory(self, tmp_path):
        TestStats().corpus(tmp_path / "corpus")
        dims = tmp_path / "corpus" / "dims.csv"
        dims.write_text("image_id,width,height\na,100,100\nb,100,100\n")
        code, _, err = run_cli(
            "stats", Path("corpus", "gt"), "--manifest", Path("corpus", "dims.csv"),
            "--out", "first", cwd=tmp_path,
        )
        assert code == 0, err
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        code, _, err = run_cli(
            *replay_argv(tmp_path / "first" / "run_manifest.txt"), "--out", tmp_path / "second",
            cwd=elsewhere,
        )
        assert code == 0, err
        one, two = tree_bytes(tmp_path / "first"), tree_bytes(tmp_path / "second")
        del one["run_manifest.txt"], two["run_manifest.txt"]
        assert one == two

    def test_eval(self, tmp_path):
        self.assert_replays(
            tmp_path, "eval", WORKED_GT, WORKED_PRED, "--iou-threshold", "0.512345678",
            "--confidence-threshold", "0.312345678", "--r2-mode", "identity",
        )

    @pytest.mark.parametrize("command", ["stats", "anchors", "eval", "synth"])
    def test_every_parsed_flag_is_recorded(self, tmp_path, command):
        inputs = {
            "stats": [WORKED_GT],
            "anchors": [TestAnchors().corpus(tmp_path)],
            "eval": [WORKED_GT, WORKED_PRED],
            "synth": ["--images", "2"],
        }
        argv = [command, *map(str, inputs[command]), "--out", str(tmp_path / "out")]
        code, _, err = run_cli(*argv)
        assert code == 0, err
        entries = manifest_entries(tmp_path / "out" / "run_manifest.txt")
        seeds = entries["seeds"].split(",") if entries["seeds"] else []
        recorded = {key.split(".", 1)[1] for key in entries if key.startswith(("param.", "input."))}
        recorded |= set(("seed", "noise_seed")[:len(seeds)])
        parsed = vars(cli.build_parser().parse_args(argv))
        assert recorded == set(parsed) - {"command", "func", "out", "quiet"}


class TestManifestLines:
    """``run_manifest.txt`` as ``main`` writes it, with the command itself stubbed out."""

    @staticmethod
    def lines(monkeypatch, tmp_path, command, *argv) -> list[str]:
        """The lines after the timestamp, once ``main`` ran ``command`` and wrote only them."""
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: None)
        out = tmp_path / "out"
        assert cli.main([command, *argv, "--out", str(out), "--quiet"]) == 0
        assert os.listdir(out) == ["run_manifest.txt"]
        lines = (out / "run_manifest.txt").read_text(encoding="utf-8").splitlines()
        assert lines[:2] == [f"command = {command}", f"version = {boxlab.__version__}"]
        assert lines[2].startswith("timestamp = ") and lines[2].endswith("+00:00")
        return lines[3:]

    def test_synth_floats_are_lossless(self, monkeypatch, tmp_path):
        assert self.lines(
            monkeypatch, tmp_path, "synth", "--images", "2", "--count-mean",
            "0.30000000000000004", "--jitter", "1e-05", "--width-min", "8.0", "--simulate",
            "--seed", "4",
        ) == [
            "seeds = 4,1",
            "param.class_name = object",
            "param.count_mean = 0.30000000000000004",
            "param.count_sd = 25",
            "param.fp_conf = 0.05,0.5",
            "param.fp_rate = 0",
            "param.image_height = 1200",
            "param.image_width = 1200",
            "param.images = 2",
            "param.intercept = 0",
            "param.jitter = 1e-05",
            "param.miss_rate = 0",
            "param.residual_sd = 3",
            "param.simulate = true",
            "param.slope = 1",
            "param.tp_conf = 0.5,1",
            "param.width_max = 90",
            "param.width_min = 8",
        ]

    def test_anchors_inputs_are_absolute(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert self.lines(
            monkeypatch, tmp_path, "anchors", str(Path("corpus", "gt")), "--compare",
            "--floor", "none", "--recall-threshold", "0.30000000000000004", "--seed", "3",
        ) == [
            "seeds = 3",
            f"input.gt_dir = {Path.cwd() / 'corpus' / 'gt'}",
            "input.manifest = ",
            "param.anchors = ",
            "param.classes = 1",
            "param.compare = true",
            "param.distance = one_minus_iou",
            "param.emit_darknet = false",
            "param.floor = none",
            "param.k = 9",
            "param.layers = auto",
            "param.method = linefit",
            "param.n_line = 9",
            "param.n_total = 13",
            "param.recall_threshold = 0.30000000000000004",
            "param.variance_bins = 10",
        ]


@pytest.mark.parametrize("failure, expected_code", [("usage", 2), ("data", 1)])
def test_a_failed_run_writes_no_manifest(tmp_path, failure, expected_code):
    gt = TestAnchors().corpus(tmp_path)
    if failure == "usage":
        argv = ["anchors", gt, "--layers", "2,2"]
    else:
        pred = write_corpus(tmp_path / "pred", {"ghost": "head 0.9 0 0 10 10\n"})
        argv = ["eval", gt, pred]
    out = tmp_path / "out"
    out.mkdir()
    code, _, err = run_cli(*argv, "--out", out)
    assert code == expected_code, err
    assert list(out.iterdir()) == []


class TestNegativeSeeds:
    @pytest.mark.parametrize(
        "argv",
        [
            ("anchors", WORKED_GT, "--method", "kmeans", "--k", "1", "--layers", "1",
             "--seed", "-1"),
            ("synth", "--images", "2", "--seed", "-1"),
            ("synth", "--images", "2", "--simulate", "--noise-seed", "-3"),
        ],
        ids=["anchors-seed", "synth-seed", "synth-noise-seed"],
    )
    def test_negative_seed_is_a_usage_error(self, tmp_path, argv):
        code, _, err = run_cli(*argv, "--out", tmp_path / "out")
        assert code == 2
        assert "must be >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_nonnegative_int_bounds(self):
        nonnegative_int = cli.number(int, 0)
        assert nonnegative_int("0") == 0
        for text in ("-1", "1.5", "x"):
            with pytest.raises(argparse.ArgumentTypeError):
                nonnegative_int(text)


class TestOverflowingBoxArea:
    """A box whose width times height overflows a float is outside the coordinate domain."""

    GT = "head 0 0 1e200 1e200\nhead 0 0 2e200 1e200\nhead 0 0 3e200 1e200\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "{pred}"),
            ("stats",),
            ("anchors", "--method", "kmeans", "--k", "2", "--layers", "2"),
            ("anchors", "--method", "kmeans", "--k", "2", "--layers", "2",
             "--distance", "euclidean"),
            ("anchors", "--method", "kmeans", "--k", "1", "--layers", "1"),
            ("anchors", "--method", "linefit"),
        ],
        ids=["eval", "stats", "kmeans-iou", "kmeans-euclidean", "kmeans-k1", "linefit"],
    )
    def test_is_a_data_error_naming_file_and_line(self, tmp_path, argv):
        gt = write_corpus(tmp_path / "gt", {"img": self.GT})
        pred = write_corpus(
            tmp_path / "pred", {"img": "head 0.9 0 0 1e200 1e200\nhead 0.8 0 0 2e200 1e200\n"}
        )
        command, *rest = (str(a).format(pred=pred) for a in argv)
        code, _, err = run_cli(command, gt, *rest, "--out", tmp_path / "out")
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ")
        assert "img.txt: line 1: box outside the coordinate domain" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestExtremeAspectBoxes:
    """Boxes of positive, finite area but a side below 2**-50 are outside the coordinate domain."""

    GT = "head 0 0 1e-200 1e200\nhead 0 0 2e-200 1e200\nhead 0 0 3e-200 1.5e200\n"

    @pytest.mark.parametrize(
        "method",
        [[], ["--method", "kmeans", "--k", "2", "--layers", "2"],
         ["--method", "kmeans", "--k", "2", "--layers", "2", "--distance", "euclidean"]],
        ids=["linefit", "kmeans-iou", "kmeans-euclidean"],
    )
    def test_anchors_exit_1_with_one_line_and_no_warning(self, tmp_path, method):
        gt = write_corpus(tmp_path / "gt", {"img": self.GT})
        code, _, err = run_cli("anchors", gt, *method, "--out", tmp_path / "out")
        assert code == 1
        assert err == (
            f"error: {gt / 'img.txt'}: line 1: box outside the coordinate domain "
            "(edges at most 2**50, sides at least 2**-50): (0.0, 0.0, 1e-200, 1e+200)\n"
        )
        assert not (tmp_path / "out").exists()


MIN_SIDE, MAX_COORDINATE = annotations.MIN_SIDE, annotations.MAX_COORDINATE
# Sides at both edges of the coordinate domain, and just past them.
SMALL_SIDES = [MIN_SIDE, math.nextafter(MIN_SIDE, 1.0), 1.0]
LARGE_SIDES = [MAX_COORDINATE, math.nextafter(MAX_COORDINATE, 0.0), 1e6]
PAST_SIDES = [math.nextafter(MIN_SIDE, 0.0), MAX_COORDINATE + 0.25]


@st.composite
def domain_edge_values(draw):
    """Boxes at extreme aspect, an image size and a WxH flag value, all at the domain edges.

    Half the examples also draw values just past the edges.
    """
    past = PAST_SIDES if draw(st.booleans()) else []
    small, large = st.sampled_from(SMALL_SIDES + past), st.sampled_from(LARGE_SIDES + past)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        sides = [draw(small), draw(large)]
        if draw(st.booleans()):
            sides.reverse()
        corner = [
            draw(st.sampled_from([0.0, -0.0, MIN_SIDE, 1.0, MAX_COORDINATE - side]
                                 + [-MIN_SIDE] * bool(past)))
            for side in sides
        ]
        rows.append((*corner, corner[0] + sides[0], corner[1] + sides[1]))
    any_side = small | large
    frame = draw(st.none() | st.tuples(any_side, any_side))
    flag = draw(st.none() | st.tuples(st.sampled_from(["--anchors", "--floor"]), any_side, any_side))
    return rows, frame, flag


class TestCoordinateDomainEdges:
    """Input at and just past both domain edges gives a result or one clear error, never a warning.

    Each run goes through ``cli.main`` in this process, where the suite turns a
    numpy RuntimeWarning into an exception.
    """

    COMMANDS = [
        ("stats",),
        ("anchors",),
        ("anchors", "--method", "kmeans", "--k", "2", "--layers", "2"),
        ("anchors", "--method", "kmeans", "--k", "2", "--layers", "2", "--distance", "euclidean"),
        ("eval", "{pred}"),
    ]

    @staticmethod
    def run(argv) -> tuple[int, str]:
        stderr, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stdout):
            code = cli.main([str(a) for a in argv])
        assert stdout.getvalue() == ""
        return code, stderr.getvalue()

    @settings(max_examples=25, deadline=None)
    @given(values=domain_edge_values())
    def test_every_command_exits_cleanly(self, tmp_path_factory, values):
        rows, frame, flag = values
        root = tmp_path_factory.mktemp("edges")
        text = "".join(
            "head " + " ".join(map(annotations.format_coordinate, row)) + "\n" for row in rows
        )
        gt = write_corpus(root / "gt", {"img": text, "small": "head 0 0 10 20\n"})
        pred = write_corpus(root / "pred", {"img": text.replace("head ", "head 0.9 ")})
        extra = []
        if frame is not None:
            manifest = root / "manifest.csv"
            width, height = map(annotations.format_coordinate, frame)
            manifest.write_text(f"image_id,width,height\nimg,{width},{height}\n")
            extra = ["--manifest", manifest]
        for index, (command, *rest) in enumerate(self.COMMANDS):
            argv = [command, gt, *(a.format(pred=pred) for a in rest), *extra]
            if command == "anchors" and flag is not None:
                name, width, height = flag
                argv += [name, f"{annotations.format_coordinate(width)}x"
                               f"{annotations.format_coordinate(height)}"]
            code, err = self.run([*argv, "--out", root / f"out{index}", "--quiet"])
            lines = err.splitlines()
            if code == 0:
                assert err == ""
            elif code == 1:
                assert len(lines) == 1 and lines[0].startswith("error: "), err
            else:
                # Only a WxH flag outside the domain is a usage error here.
                assert code == 2 and command == "anchors" and flag is not None, err
                assert len(lines) == 1 and lines[0].startswith("usage error: "), err


class TestUndecodableBytes:
    """A byte that is not UTF-8, in any input file, is a data error naming file and line."""

    @pytest.mark.parametrize(
        "command, bad",
        [("stats", "gt"), ("anchors", "gt"), ("eval", "gt"), ("eval", "pred"),
         ("stats", "manifest")],
        ids=["stats-gt", "anchors-gt", "eval-gt", "eval-pred", "stats-manifest"],
    )
    def test_is_a_data_error_naming_file_and_line(self, tmp_path, command, bad):
        gt = write_corpus(tmp_path / "gt", {"a": "head 0 0 10 10\n", "b": "head 0 0 5 5\n"})
        pred = write_corpus(tmp_path / "pred", {"a": "head 0.9 0 0 10 10\n"})
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("image_id,width,height\na,20,20\n")
        path, first_line = {
            "gt": (gt / "b.txt", b"head 0 0 5 5\n"),
            "pred": (pred / "a.txt", b"head 0.9 0 0 10 10\n"),
            "manifest": (manifest, b"image_id,width,height\n"),
        }[bad]
        path.write_bytes(first_line + b"h\xffad 0 0 10 10\n")
        inputs = {"stats": [gt, "--manifest", manifest], "anchors": [gt], "eval": [gt, pred]}
        code, _, err = run_cli(command, *inputs[command], "--out", tmp_path / "out")
        assert code == 1
        assert err.splitlines() == [f"error: {path}: line 2: not UTF-8 text: byte 0xff"]
        assert not (tmp_path / "out").exists()


class TestUnreadableInputs:
    """An input path that cannot be read is one data-error line naming it, not an OSError text."""

    @pytest.mark.parametrize(
        "command, bad",
        [("stats", "gt"), ("anchors", "gt"), ("eval", "gt"), ("eval", "pred"),
         ("stats", "manifest"), ("eval", "manifest")],
        ids=["stats-gt", "anchors-gt", "eval-gt", "eval-pred", "stats-manifest", "eval-manifest"],
    )
    def test_is_a_data_error_naming_the_path(self, tmp_path, command, bad):
        gt = write_corpus(tmp_path / "gt", {"a": "head 0 0 10 10\n"})
        pred = write_corpus(tmp_path / "pred", {"a": "head 0.9 0 0 10 10\n"})
        inputs = {"stats": [gt], "anchors": [gt], "eval": [gt, pred]}[command]
        if bad == "manifest":
            path, reason = tmp_path / "missing.csv", os.strerror(errno.ENOENT)
            inputs = [*inputs, "--manifest", path]
        else:
            path, reason = (gt if bad == "gt" else pred) / "sub.txt", os.strerror(errno.EISDIR)
            path.mkdir()
        code, _, err = run_cli(command, *inputs, "--out", tmp_path / "out")
        assert code == 1
        assert err.splitlines() == [f"error: {path}: cannot read: {reason}"]
        assert not (tmp_path / "out").exists()


class TestStatsAreaOverflow:
    """An image whose summed box area or width x height would overflow is outside the
    coordinate domain: a data error naming the file and its line or row."""

    @pytest.mark.parametrize(
        "gt_text, manifest, where",
        [
            ("head 0 0 1e154 1e154\nhead 0 0 1.2e154 1.2e154\n", None,
             "gt/img.txt: line 1: box outside the coordinate domain"),
            ("head 0 0 10 10\n", "image_id,width,height\nimg,1e200,1e200\n",
             "m.csv: row 2: dimensions must be positive and finite, in [2**-50, 2**50]"),
        ],
        ids=["box-areas", "manifest-size"],
    )
    def test_is_a_data_error_and_writes_nothing(self, tmp_path, gt_text, manifest, where):
        gt = write_corpus(tmp_path / "gt", {"img": gt_text, "other": "head 0 0 10 10\n"})
        argv = ["stats", gt, "--out", tmp_path / "out"]
        if manifest:
            (tmp_path / "m.csv").write_text(manifest)
            argv += ["--manifest", tmp_path / "m.csv"]
        code, _, err = run_cli(*argv)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {tmp_path}/{where}")
        assert not (tmp_path / "out").exists()


class TestNoPerBoxRecords:
    """The commands read the corpus columns and never build the per-box row view."""

    def test_commands_run_with_record_construction_refused(self, tmp_path, monkeypatch):
        def refuse(image):
            raise AssertionError(f"rows of {image.image_id!r} built on a command path")

        monkeypatch.setattr(annotations.ImageAnnotations, "boxes", property(refuse))
        with pytest.raises(AssertionError):
            annotations.ImageAnnotations("img", ["h"], [(0, 0, 1, 1)]).boxes

        synth = tmp_path / "synth"
        mixed_gt = write_corpus(
            tmp_path / "mixed_gt",
            {"a": "head 0 0 10 10\nleaf 20 20 30 30\nhead 40 40 50 50\n", "b": "leaf 1 1 5 5\n",
             "c": ""},
        )
        (tmp_path / "manifest.csv").write_text("image_id,width,height\na,60,60\nb,8,8\n")
        mixed_pred = write_corpus(
            tmp_path / "mixed_pred",
            {"a": "leaf 0.9 20 20 30 30\nstem 0.6 0 0 10 10\nhead 0.5 30 0 40 10\n",
             "c": "head 0.4 0 0 10 10\n"},
        )
        runs = [
            ["synth", "--images", "6", "--seed", "3", "--simulate", "--miss-rate", "0.2",
             "--fp-rate", "2", "--jitter", "1", "--out", synth],
            ["stats", synth / "gt", "--out", tmp_path / "stats"],
            ["anchors", synth / "gt", "--compare", "--emit-darknet", "--out", tmp_path / "anchors"],
            ["eval", synth / "gt", synth / "pred", "--out", tmp_path / "eval"],
            ["stats", mixed_gt, "--manifest", tmp_path / "manifest.csv", "--out", tmp_path / "s2"],
            ["eval", mixed_gt, mixed_pred, "--manifest", tmp_path / "manifest.csv",
             "--out", tmp_path / "e2"],
        ]
        for argv in runs:
            assert cli.main([str(arg) for arg in argv] + ["--quiet"]) == 0, argv


class TestUnitIntervalFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", WORKED_GT, WORKED_PRED, "--iou-threshold", "1.5"),
            ("eval", WORKED_GT, WORKED_PRED, "--confidence-threshold", "7"),
            ("anchors", WORKED_GT, "--recall-threshold", "1.5"),
        ],
        ids=["iou-threshold", "confidence-threshold", "recall-threshold"],
    )
    def test_out_of_range_is_a_usage_error(self, tmp_path, argv):
        code, _, err = run_cli(*argv, "--out", tmp_path / "out")
        assert code == 2
        assert "must be <= 1" in err
        assert not (tmp_path / "out").exists()

    def test_bounds(self):
        unit_float = cli.number(float, 0, 1)
        positive_unit_float = cli.number(float, 0, 1, strict=True)
        assert unit_float("0") == 0.0
        assert unit_float("1") == 1.0
        assert positive_unit_float("1") == 1.0
        for parse, text in [
            (unit_float, "-0.1"),
            (unit_float, "nan"),
            (positive_unit_float, "0"),
            (positive_unit_float, "inf"),
        ]:
            with pytest.raises(argparse.ArgumentTypeError):
                parse(text)


class TestNonFiniteFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", WORKED_GT, "--min-coverage", "nan"),
            ("synth", "--images", "2", "--slope", "nan"),
            ("synth", "--images", "2", "--count-sd", "inf"),
            ("synth", "--images", "2", "--image-width", "inf"),
            ("anchors", WORKED_GT, "--anchors", "nanx10", "--layers", "1"),
        ],
        ids=["min-coverage", "slope", "count-sd", "image-width", "anchors"],
    )
    def test_non_finite_is_a_usage_error(self, tmp_path, argv):
        code, _, err = run_cli(*argv, "--out", tmp_path / "out")
        assert code == 2
        assert "must be finite" in err
        assert not (tmp_path / "out").exists()


TINY = 5e-324  # the least positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)
HUGE = sys.float_info.max
# Every numeric flag: (command, flag, a bound it accepts, the next value outside
# that bound, the start of the error). A flag with two bounds has two rows.
NUMERIC_FLAG_BOUNDS = [
    ("stats", "--min-count", 0, -1, "must be >= 0"),
    ("stats", "--min-coverage", 0.0, -TINY, "must be >= 0"),
    ("stats", "--bins", 1, 0, "must be >= 1"),
    ("anchors", "--k", 1, 0, "must be >= 1"),
    ("anchors", "--seed", 0, -1, "must be >= 0"),
    ("anchors", "--n-line", 1, 0, "must be >= 1"),
    ("anchors", "--n-total", 1, 0, "must be >= 1"),
    ("anchors", "--variance-bins", 1, 0, "must be >= 1"),
    ("anchors", "--recall-threshold", TINY, 0.0, "must be > 0"),
    ("anchors", "--recall-threshold", 1.0, ABOVE_ONE, "must be <= 1"),
    ("anchors", "--classes", 1, 0, "must be >= 1"),
    ("eval", "--iou-threshold", TINY, 0.0, "must be > 0"),
    ("eval", "--iou-threshold", 1.0, ABOVE_ONE, "must be <= 1"),
    ("eval", "--confidence-threshold", 0.0, -TINY, "must be >= 0"),
    ("eval", "--confidence-threshold", 1.0, ABOVE_ONE, "must be <= 1"),
    ("synth", "--images", 1, 0, "must be >= 1"),
    ("synth", "--image-width", TINY, 0.0, "must be > 0"),
    ("synth", "--image-height", TINY, 0.0, "must be > 0"),
    ("synth", "--count-mean", TINY, 0.0, "must be > 0"),
    ("synth", "--count-sd", 0.0, -TINY, "must be >= 0"),
    ("synth", "--width-min", TINY, 0.0, "must be > 0"),
    ("synth", "--width-max", TINY, 0.0, "must be > 0"),
    ("synth", "--slope", HUGE, math.inf, "must be finite"),
    ("synth", "--slope", -HUGE, -math.inf, "must be finite"),
    ("synth", "--intercept", HUGE, math.inf, "must be finite"),
    ("synth", "--intercept", -HUGE, -math.inf, "must be finite"),
    ("synth", "--residual-sd", 0.0, -TINY, "must be >= 0"),
    ("synth", "--seed", 0, -1, "must be >= 0"),
    ("synth", "--miss-rate", 0.0, -TINY, "must be >= 0"),
    ("synth", "--fp-rate", 0.0, -TINY, "must be >= 0"),
    ("synth", "--jitter", 0.0, -TINY, "must be >= 0"),
    ("synth", "--tp-conf", 0.0, -TINY, "must be >= 0"),
    ("synth", "--fp-conf", 0.0, -TINY, "must be >= 0"),
    ("synth", "--noise-seed", 0, -1, "must be >= 0"),
]
COMMAND_INPUTS = {
    "stats": [str(WORKED_GT)],
    "anchors": [str(WORKED_GT)],
    "eval": [str(WORKED_GT), str(WORKED_PRED)],
    "synth": ["--images", "2"],
}
PAIR_FLAGS = ("--tp-conf", "--fp-conf")


def numeric_flag_argv(command: str, flag: str, value) -> list[str]:
    """``command`` with its inputs and ``flag`` set to ``value``, written out in full."""
    text = str(value) if isinstance(value, int) else np.format_float_positional(value)
    # "--flag=value" keeps a negative value from reading as a flag; the pair
    # flags take two words, which the exponent-free text keeps apart from flags.
    given = [flag, text, text] if flag in PAIR_FLAGS else [f"{flag}={text}"]
    return [command, *COMMAND_INPUTS[command], *given]


class TestNumericFlagBounds:
    def test_every_numeric_flag_is_listed(self):
        number_code = cli.number(int).__code__
        (commands,) = (
            action.choices for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        numeric = {
            (command, action.option_strings[0])
            for command, parser in commands.items()
            for action in parser._actions
            if getattr(action.type, "__code__", None) is number_code
        }
        assert numeric == {(command, flag) for command, flag, *_ in NUMERIC_FLAG_BOUNDS}

    @pytest.mark.parametrize("command, flag, bound, outside, message", NUMERIC_FLAG_BOUNDS)
    def test_bound_is_accepted(self, command, flag, bound, outside, message):
        args = cli.build_parser().parse_args(numeric_flag_argv(command, flag, bound))
        value = getattr(args, flag[2:].replace("-", "_"))
        if flag in PAIR_FLAGS:
            assert value[0] == value[1]
            value = value[0]
        assert value == bound and type(value) is type(bound)

    @pytest.mark.parametrize("command, flag, bound, outside, message", NUMERIC_FLAG_BOUNDS)
    def test_next_value_outside_is_a_usage_error(
        self, tmp_path, capsys, command, flag, bound, outside, message
    ):
        out = tmp_path / "out"
        argv = numeric_flag_argv(command, flag, outside)
        assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"usage error: argument {flag}: {message}")
        assert not out.exists()


def doubled_box_file(text: str, first_coordinate: int) -> str:
    """A box file with every coordinate doubled, which is exact in binary floating point."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        coordinates = tokens[first_coordinate:]
        doubled = [annotations.format_coordinate(2 * float(v)) for v in coordinates]
        lines.append(" ".join(tokens[:first_coordinate] + doubled) + "\n")
    return "".join(lines)


class TestDoubledCoordinates:
    """Doubling every coordinate and image side leaves every ratio the reports hold unchanged.

    IoU, coverage fractions, rankings and counts are ratios of exactly doubled
    (or quadrupled) floats, so the reports must stay byte-identical.
    """

    @pytest.fixture
    def corpora(self, tmp_path):
        """A two-class corpus with explicit sizes, and the same corpus doubled."""
        for name, seed, widths in (("head", "3", ("8", "40")), ("leaf", "4", ("20", "70"))):
            assert cli.main([
                "synth", "--images", "6", "--count-mean", "9", "--count-sd", "3",
                "--width-min", widths[0], "--width-max", widths[1], "--class-name", name,
                "--seed", seed, "--simulate", "--miss-rate", "0.2", "--fp-rate", "3",
                "--jitter", "3", "--out", str(tmp_path / name), "--quiet",
            ]) == 0
        original, doubled = tmp_path / "original", tmp_path / "doubled"
        for kind, first_coordinate in (("gt", 1), ("pred", 2)):
            for root in (original, doubled):
                (root / kind).mkdir(parents=True)
            for path in sorted((tmp_path / "head" / kind).glob("*.txt")):
                text = path.read_text(encoding="utf-8")
                text += (tmp_path / "leaf" / kind / path.name).read_text(encoding="utf-8")
                (original / kind / path.name).write_text(text, encoding="utf-8")
                (doubled / kind / path.name).write_text(
                    doubled_box_file(text, first_coordinate), encoding="utf-8"
                )
        manifest = (tmp_path / "head" / "gt" / "manifest.csv").read_text(encoding="utf-8")
        (original / "manifest.csv").write_text(manifest, encoding="utf-8")
        header, *rows = manifest.splitlines()
        (doubled / "manifest.csv").write_text(
            "\n".join([header] + [
                f"{image_id},{2 * int(width)},{2 * int(height)}"
                for image_id, width, height in (row.split(",") for row in rows)
            ]) + "\n",
            encoding="utf-8",
        )
        return original, doubled

    @staticmethod
    def run(command, root, *extra):
        out = root / command
        argv = [command, str(root / "gt"), *extra, "--manifest", str(root / "manifest.csv")]
        assert cli.main([*argv, "--out", str(out), "--quiet"]) == 0
        return out

    def test_eval_reports_are_byte_identical(self, corpora):
        original, doubled = corpora
        a = self.run("eval", original, str(original / "pred"))
        b = self.run("eval", doubled, str(doubled / "pred"))
        assert "ap.leaf" in (a / "report.csv").read_text(encoding="utf-8")
        for name in ("report.csv", "pr_curve.csv", "counts.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_stats_coverage_is_unchanged(self, corpora):
        original, doubled = corpora
        a, b = self.run("stats", original), self.run("stats", doubled)

        def coverage_column(out):
            with (out / "per_image.csv").open(encoding="utf-8", newline="") as fh:
                return [row["coverage_fraction"] for row in csv.DictReader(fh)]

        assert coverage_column(a) == coverage_column(b)
        assert len(coverage_column(a)) == 6
        # The summed box areas do move: the corpus really was doubled.
        assert (a / "per_image.csv").read_bytes() != (b / "per_image.csv").read_bytes()
        assert (a / "coverage_hist.csv").read_bytes() == (b / "coverage_hist.csv").read_bytes()


    @pytest.mark.parametrize(
        "method, step",
        [(["--floor", "{floor}"], 1.0),
         (["--method", "kmeans", "--k", "6", "--layers", "6"], 0.01),
         (["--method", "kmeans", "--k", "6", "--layers", "6", "--distance", "euclidean"], 0.01)],
        ids=["linefit", "kmeans-iou", "kmeans-euclidean"],
    )
    def test_anchors_double_within_their_rounding_step(self, corpora, method, step):
        """Box rows double exactly; anchors, rounded after the doubling, within one step."""
        dims, anchors = [], []
        for root, floor in zip(corpora, ("10x10", "20x20")):
            out = self.run("anchors", root, *(a.format(floor=floor) for a in method))
            with (out / "dims_anchors.csv").open(encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            dims.append(extract_dims(annotations.load_dataset(root / "gt", root / "manifest.csv")))
            assert [row for row in rows if row[0] == "box"] == [
                ["box", fmt_num(w), fmt_num(h)] for w, h in dims[-1].tolist()
            ]
            anchors.append(np.array([row[1:] for row in rows if row[0] == "anchor"], dtype=float))
        assert len(dims[0]) and np.array_equal(dims[1], 2 * dims[0])
        assert anchors[0].shape == anchors[1].shape
        assert np.all(np.abs(anchors[1] - 2 * anchors[0]) <= step * (1 + 1e-9))


SYNTH_ID = re.compile(r"img_\d{4}")


class TestRenamedImages:
    """Renaming the images in an order-preserving way changes only the ids in the outputs.

    Every file that ``stats`` and ``eval`` write, overlay file names included,
    must equal the original run's with each old id replaced by its new one;
    only ``run_manifest.txt``, which records the input paths, may differ.
    """

    N_IMAGES = 12

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("original")
        assert cli.main([
            "synth", "--images", str(self.N_IMAGES), "--count-mean", "9", "--count-sd", "3",
            "--seed", "5", "--simulate", "--miss-rate", "0.2", "--fp-rate", "2",
            "--jitter", "2", "--out", str(root / "corpus"), "--quiet",
        ]) == 0
        return root / "corpus", self.outputs(root / "corpus", root)

    @staticmethod
    def outputs(corpus: Path, root: Path) -> dict[str, bytes]:
        """Every file but ``run_manifest.txt`` that ``stats`` and ``eval`` write, by path."""
        manifest = str(corpus / "gt" / "manifest.csv")
        files = {}
        for command, *inputs in (("stats", "gt"), ("eval", "gt", "pred")):
            out = root / command
            argv = [command, *(str(corpus / kind) for kind in inputs), "--manifest", manifest]
            assert cli.main([*argv, "--out", str(out), "--quiet"]) == 0
            files.update(
                (f"{command}/{name}", data)
                for name, data in tree_bytes(out).items()
                if name != "run_manifest.txt"
            )
        return files

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="aZ09_-é字", min_size=1, max_size=6),
            min_size=N_IMAGES, max_size=N_IMAGES, unique=True,
        ).map(sorted)
    )
    def test_only_the_ids_change(self, original, tmp_path_factory, new_ids):
        corpus, expected = original
        old_ids = sorted(path.stem for path in (corpus / "gt").glob("*.txt"))
        rename = dict(zip(old_ids, new_ids))

        def substituted(text: str) -> str:
            return SYNTH_ID.sub(lambda match: rename[match.group()], text)

        root = tmp_path_factory.mktemp("renamed")
        for kind in ("gt", "pred"):
            (root / "corpus" / kind).mkdir(parents=True)
            for path in (corpus / kind).iterdir():
                (root / "corpus" / kind / substituted(path.name)).write_bytes(path.read_bytes())
        manifest = root / "corpus" / "gt" / "manifest.csv"
        manifest.write_text(substituted(manifest.read_text(encoding="utf-8")), encoding="utf-8")

        renamed = self.outputs(root / "corpus", root)
        assert renamed == {
            substituted(name): substituted(data.decode("utf-8")).encode("utf-8")
            for name, data in expected.items()
        }
        assert f"eval/overlays/{new_ids[0]}.csv" in renamed


# Integer boxes on a small canvas, few confidences: overlaps and ties are common.
RELATION_BOXES = st.tuples(
    st.integers(0, 20), st.integers(0, 20), st.integers(1, 12), st.integers(1, 12)
).map(lambda b: (b[0], b[1], b[0] + b[2], b[1] + b[3]))
RELATION_GT = st.lists(st.tuples(st.sampled_from(["head", "leaf"]), RELATION_BOXES), max_size=5)
RELATION_CONFIDENCES = st.sampled_from(["0.3", "0.5", "0.8", "1"])
# 'stem' has no ground truth anywhere.
RELATION_DETS = st.lists(
    st.tuples(st.sampled_from(["head", "leaf", "stem"]), RELATION_CONFIDENCES, RELATION_BOXES),
    max_size=5,
)


def box_text(rows) -> str:
    """A box file of (class, box) or (class, confidence, box) rows."""
    return "".join(" ".join(map(str, (*row[:-1], *row[-1]))) + "\n" for row in rows)


def eval_files(root: Path, gt: dict, dets: dict) -> dict[str, bytes]:
    """Every file but ``run_manifest.txt`` that ``eval`` writes for the corpus, by path.

    ``gt`` maps each image id to its (class, box) rows, and ``dets`` maps an
    image id to its (class, confidence, box) rows; an image it leaves out has
    no prediction file.
    """
    gt_dir = write_corpus(root / "gt", {image_id: box_text(rows) for image_id, rows in gt.items()})
    pred_dir = write_corpus(
        root / "pred", {image_id: box_text(rows) for image_id, rows in dets.items()}
    )
    out = root / "out"
    assert cli.main(["eval", str(gt_dir), str(pred_dir), "--out", str(out), "--quiet"]) == 0
    return {name: data for name, data in tree_bytes(out).items() if name != "run_manifest.txt"}


def eval_tree(root: Path, gt_rows: list, det_rows: dict) -> dict[str, bytes]:
    """``eval_files`` for images named ``img_<position>``.

    ``gt_rows`` holds each image's rows, and ``det_rows`` maps an image's
    position to its rows.
    """
    return eval_files(
        root,
        {f"img_{i}": rows for i, rows in enumerate(gt_rows)},
        {f"img_{i}": rows for i, rows in det_rows.items()},
    )


def report_rows(tree: dict[str, bytes], *prefixes: str) -> list[str]:
    """The lines of the tree's ``report.csv`` that start with one of ``prefixes``."""
    lines = tree["report.csv"].decode("utf-8").splitlines()
    return [line for line in lines if line.startswith(prefixes)]


def relation_corpus(classes: tuple[str, ...]):
    """Images of (gt rows, detection rows or None for no file), with only ``classes``."""
    return st.lists(
        st.tuples(
            st.lists(st.tuples(st.sampled_from(classes), RELATION_BOXES), max_size=5),
            st.none() | st.lists(
                st.tuples(st.sampled_from(classes), RELATION_CONFIDENCES, RELATION_BOXES),
                max_size=5,
            ),
        ),
        min_size=1,
        max_size=4,
    )


class TestEvalRelations:
    """Relations between two ``eval`` runs that hold exactly, checked on whole output trees."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(RELATION_GT, st.none() | RELATION_DETS), min_size=1, max_size=6))
    def test_an_empty_prediction_file_equals_a_missing_one(self, tmp_path_factory, images):
        # None: the image has no detections, as an empty file or as no file at all.
        assume(any(gt_rows for gt_rows, _ in images))
        assume(any(dets is None for _, dets in images))
        assume(any(dets is not None for _, dets in images))
        gt_rows = [gt for gt, _ in images]
        root = tmp_path_factory.mktemp("relation")
        empty = eval_tree(
            root / "empty", gt_rows, {i: dets or [] for i, (_, dets) in enumerate(images)}
        )
        missing = eval_tree(
            root / "missing", gt_rows,
            {i: dets for i, (_, dets) in enumerate(images) if dets is not None},
        )
        assert empty == missing

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                RELATION_GT,
                st.none() | RELATION_DETS,
                st.lists(st.tuples(st.just("zebra"), RELATION_CONFIDENCES, RELATION_BOXES),
                         max_size=3),
            ),
            min_size=1,
            max_size=6,
        ),
        st.data(),
    )
    def test_detections_of_a_class_without_ground_truth_leave_the_ap_outputs(
        self, tmp_path_factory, images, data
    ):
        # Each image's 'zebra' rows go in at drawn places among its detections, or
        # make up a new prediction file.
        assume(any(gt_rows for gt_rows, *_ in images))
        assume(any(dets is not None for _, dets, _ in images))
        assume(any(zebras for *_, zebras in images))
        gt_rows = [gt for gt, *_ in images]
        before = {i: dets for i, (_, dets, _) in enumerate(images) if dets is not None}
        after = {}
        for i, (_, dets, zebras) in enumerate(images):
            rows = list(dets or [])
            for row in zebras:
                rows.insert(data.draw(st.integers(0, len(rows))), row)
            if dets is not None or zebras:
                after[i] = rows
        root = tmp_path_factory.mktemp("relation")
        plain = eval_tree(root / "plain", gt_rows, before)
        with_zebras = eval_tree(root / "zebras", gt_rows, after)
        assert report_rows(with_zebras, "map,", "ap.") == report_rows(plain, "map,", "ap.")
        (plain_total,), (zebra_total,) = (
            report_rows(tree, "total_detections,") for tree in (plain, with_zebras)
        )
        added = sum(len(zebras) for *_, zebras in images)
        assert int(zebra_total.split(",")[1]) == int(plain_total.split(",")[1]) + added
        for name in ("pr_curve.csv", "pr_curve.svg"):
            assert with_zebras[name] == plain[name], name

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                RELATION_GT,
                st.lists(
                    st.tuples(st.sampled_from(["head", "leaf"]), st.integers(1, 9),
                              RELATION_BOXES),
                    max_size=5,
                ),
            ),
            min_size=2,
            max_size=6,
        ),
        st.data(),
    )
    def test_renaming_that_reorders_the_images_leaves_the_ap_outputs(
        self, tmp_path_factory, images, data
    ):
        # Image i's confidences end in the digit i, so no two images share one.
        assume(any(gt_rows for gt_rows, _ in images))
        new_names = data.draw(st.permutations([f"r{i}" for i in range(len(images))]))
        gt_rows = [gt for gt, _ in images]
        det_rows = [
            [(name, f"0.{digit}{i}", box) for name, digit, box in dets]
            for i, (_, dets) in enumerate(images)
        ]
        root = tmp_path_factory.mktemp("relation")
        original = eval_tree(root / "original", gt_rows, dict(enumerate(det_rows)))
        renamed = eval_files(
            root / "renamed", dict(zip(new_names, gt_rows)), dict(zip(new_names, det_rows))
        )
        assert report_rows(renamed, "map,", "ap.") == report_rows(original, "map,", "ap.")
        assert renamed["pr_curve.csv"] == original["pr_curve.csv"]

    @settings(max_examples=40, deadline=None)
    @given(relation_corpus(("head", "leaf")), relation_corpus(("root", "stem")))
    def test_disjoint_union_keeps_each_class_ap(self, tmp_path_factory, first, second):
        # The two corpora's ids interleave in the union: img_0, img_2, ... and img_1, img_3, ...
        corpora = []
        for parity, images in enumerate((first, second)):
            assume(any(gt_rows for gt_rows, _ in images))
            assume(any(dets is not None for _, dets in images))
            ids = [f"img_{2 * i + parity}" for i in range(len(images))]
            corpora.append((
                {image_id: gt_rows for image_id, (gt_rows, _) in zip(ids, images)},
                {image_id: dets for image_id, (_, dets) in zip(ids, images) if dets is not None},
            ))
        root = tmp_path_factory.mktemp("relation")
        alone = [
            eval_files(root / f"alone_{n}", gt, dets) for n, (gt, dets) in enumerate(corpora)
        ]
        (first_gt, first_dets), (second_gt, second_dets) = corpora
        union = eval_files(
            root / "union", {**first_gt, **second_gt}, {**first_dets, **second_dets}
        )
        assert report_rows(union, "ap.") == sum((report_rows(t, "ap.") for t in alone), [])
        # Every first-corpus class sorts before every second-corpus one.
        assert union["pr_curve.csv"].splitlines()[1:] == sum(
            (t["pr_curve.csv"].splitlines()[1:] for t in alone), []
        )


class TestTranslatedCorpus:
    """Moving every box by one integer offset, each frame grown by it, changes no box size
    and no overlap, so every report that does not hold a coordinate or a coverage stays."""

    FRAME = 40  # RELATION_BOXES end at 32

    def reports(self, root: Path, images: list, offset: tuple[int, int]) -> tuple[dict, int]:
        """The ``stats``, ``anchors`` and ``eval`` files the relation keeps, and the
        exit code of ``anchors``, for the corpus moved by ``offset``."""
        dx, dy = offset

        def moved(rows):
            return [(*row, (l + dx, t + dy, r + dx, b + dy)) for *row, (l, t, r, b) in rows]

        gt = write_corpus(root / "gt", {
            f"img_{i}": box_text(moved(gt_rows)) for i, (gt_rows, _) in enumerate(images)
        })
        pred = write_corpus(root / "pred", {
            f"img_{i}": box_text(moved(dets)) for i, (_, dets) in enumerate(images)
        })
        manifest = root / "dims.csv"
        manifest.write_text("image_id,width,height\n" + "".join(
            f"img_{i},{self.FRAME + dx},{self.FRAME + dy}\n" for i in range(len(images))
        ), encoding="utf-8")
        files, codes = {}, {}
        for command, *argv in (("stats", gt), ("anchors", gt, "--compare", "--k", "3"),
                               ("eval", gt, pred)):
            out = root / command
            codes[command] = cli.main([command, *map(str, argv), "--manifest", str(manifest),
                                       "--out", str(out), "--quiet"])
            files.update((f"{command}/{path.name}", path.read_bytes())
                         for path in sorted(out.glob("*.csv")))
        assert codes["stats"] == codes["eval"] == 0
        with io.StringIO(files.pop("stats/per_image.csv").decode("utf-8")) as fh:
            files["stats/per_image.csv"] = [row[:3] for row in csv.reader(fh)]
        for name in ("stats/summary.csv", "stats/coverage_hist.csv"):
            del files[name]
        return files, codes["anchors"]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(RELATION_GT, RELATION_DETS), min_size=1, max_size=5),
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).filter(any),
    )
    def test_reports_are_unchanged(self, tmp_path_factory, images, offset):
        assume(any(gt_rows for gt_rows, _ in images))
        root = tmp_path_factory.mktemp("translation")
        original, original_code = self.reports(root / "original", images, (0, 0))
        translated, translated_code = self.reports(root / "translated", images, offset)
        assert translated_code == original_code
        assert sorted(original) == sorted(translated)
        assert translated == original


class TestEvalReleaseOrder:
    """``eval`` builds its summary files and plots after the corpus is freed."""

    def test_no_chart_is_drawn_while_the_corpus_is_alive(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        assert cli.main([
            "synth", "--images", "6", "--count-mean", "9", "--count-sd", "3", "--simulate",
            "--miss-rate", "0.2", "--fp-rate", "2", "--jitter", "2", "--out", str(corpus),
            "--quiet",
        ]) == 0
        refs: dict[str, list] = {}

        def recording(name, build, parts):
            def wrapper(*args, **kwargs):
                built = build(*args, **kwargs)
                refs[name] = [weakref.ref(part) for part in parts(built)]
                return built
            return wrapper

        # A dict takes no weak reference, so the predictions are watched image by image.
        monkeypatch.setattr(cli, "load_dataset", recording(
            "corpus", cli.load_dataset, lambda gt: [gt, *gt]))
        monkeypatch.setattr(cli, "load_predictions_dir", recording(
            "predictions", cli.load_predictions_dir, lambda preds: list(preds.values())))
        monkeypatch.setattr(evalcore, "evaluate", recording(
            "verdicts", evalcore.evaluate, lambda report: [report.verdicts]))
        drawn = []

        def checking(draw):
            def wrapper(*args, **kwargs):
                assert sorted(refs) == ["corpus", "predictions", "verdicts"]
                alive = [name for name, group in refs.items() if any(ref() for ref in group)]
                assert alive == [], f"{draw.__name__} drawn while {alive} alive"
                drawn.append(draw.__name__)
                return draw(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "line_svg", checking(cli.line_svg))
        monkeypatch.setattr(cli, "scatter_svg", checking(cli.scatter_svg))
        out = tmp_path / "out"
        assert cli.main([
            "eval", str(corpus / "gt"), str(corpus / "pred"), "--out", str(out), "--quiet"
        ]) == 0
        assert sorted(drawn) == ["line_svg", "scatter_svg"]
        assert len(refs["corpus"]) == 7 and len(refs["predictions"]) == 6
        assert len(list((out / "overlays").iterdir())) == 6


class TestPipeline:
    def test_synth_stats_anchors_eval_round_trip(self, tmp_path):
        base = tmp_path / "flow"
        code, _, _ = run_cli(
            "synth", "--images", "12", "--seed", "42", "--simulate", "--out", base
        )
        assert code == 0

        code, stdout, _ = run_cli(
            "stats", base / "gt", "--manifest", base / "gt" / "manifest.csv",
            "--out", base / "stats",
        )
        assert code == 0
        assert "images = 12" in stdout

        code, stdout, _ = run_cli(
            "anchors", base / "gt", "--compare", "--emit-darknet", "--out", base / "anchors"
        )
        assert code == 0
        assert (base / "anchors" / "darknet.cfg").exists()

        code, stdout, _ = run_cli(
            "eval", base / "gt", base / "pred", "--out", base / "eval"
        )
        assert code == 0
        assert "mAP = 1.0000" in stdout
        assert "R^2 = 1.0000" in stdout
        report = (base / "eval" / "report.csv").read_text(encoding="utf-8")
        assert "map,1\n" in report
        assert "r_squared,1\n" in report


class TestKMeansAnchorsRoundingToZero:
    """A k-means centroid under 0.005 px rounds to a 0 anchor: one error naming the
    centroid and the rounding, not a complaint about anchors the user never gave."""

    @pytest.mark.parametrize(
        "method", [["--method", "kmeans"], ["--compare"]], ids=["kmeans", "compare"]
    )
    def test_is_one_data_error_naming_the_rounding(self, tmp_path, method):
        gt = write_corpus(tmp_path / "gt", {
            "img": "head 0 0 0.001 0.002\nhead 0 0 0.003 0.001\nhead 0 0 0.002 0.002\n"
        })
        code, stdout, err = run_cli(
            "anchors", gt, *method, "--k", "2", "--layers", "2", "--out", tmp_path / "out"
        )
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [err.strip()]
        pattern = r"error: k-means centroid \(.*\) rounds to 0 at 2 decimals"
        assert re.fullmatch(pattern, err.strip())
        assert not (tmp_path / "out").exists()


class TestKMeansAnchorsRoundingTogether:
    """Two k-means centroids that round to one anchor at 2 decimals: one error naming
    both, not a silently shorter anchor set or a complaint about the user's --layers."""

    @pytest.mark.parametrize("layers", [[], ["--layers", "2"]], ids=["default", "layers"])
    def test_is_one_data_error_naming_both_centroids(self, tmp_path, layers):
        gt = write_corpus(tmp_path / "gt", {
            "img": "head 0 0 0.011 0.011\nhead 0 0 0.012 0.012\n"
                   "head 0 0 0.0135 0.0135\nhead 0 0 0.014 0.014\n"
        })
        code, stdout, err = run_cli(
            "anchors", gt, "--method", "kmeans", "--k", "2", *layers, "--out", tmp_path / "out"
        )
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [err.strip()]
        pattern = (r"error: k-means centroids \(0\.01\d*, 0\.01\d*\) and "
                   r"\(0\.01\d*, 0\.01\d*\) round to the same anchor at 2 decimals")
        assert re.fullmatch(pattern, err.strip())
        assert not (tmp_path / "out").exists()


class TestEmptyManifestImageId:
    @pytest.mark.parametrize("image_id", ["", "  "], ids=["empty", "blank"])
    def test_is_a_data_error_naming_the_row(self, tmp_path, image_id):
        gt = write_corpus(tmp_path / "gt", {"a": "head 0 0 1 1\n"})
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"image_id,width,height\n{image_id},10,10\na,10,10\n")
        code, _, err = run_cli("stats", gt, "--manifest", manifest, "--out", tmp_path / "out")
        assert code == 1
        assert err == f"error: {manifest}: row 2: empty image_id\n"
        assert not (tmp_path / "out").exists()
