"""Command-line surface: ``stats``, ``anchors``, ``eval``, ``synth``.

Exit codes: 0 success, 1 data error (unreadable/invalid inputs), 2 usage
error (bad flags). After a command succeeds, ``main`` writes a
``run_manifest.txt`` beside its outputs from every parsed flag. Each
``param.<name>`` line holds a value that ``--<name>`` accepts (``true`` for a
bare flag, empty or ``false`` for one left out), floats are written
losslessly, and the inputs (as absolute paths) and seeds are recorded too, so
re-running with those values, from any directory, reproduces all other files
byte-identically.

Each ``cmd_*`` imports the library modules that only it runs, at the top of its
body, so a command's process loads no other command's code.
"""

from __future__ import annotations

import os
import sys

# boxlab makes no BLAS call: one OpenBLAS thread spares each command the start
# of numpy's worker threads. This must run before numpy's first import, and a
# value already in the environment wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import math
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from .annotations import (
    SIDE_RANGE,
    DataError,
    DatasetError,
    format_coordinate,
    in_domain,
    load_dataset,
    load_predictions_dir,
    save_dataset,
    save_predictions,
)
from .reports import atomic_write, fmt_num, write_csv, write_run_manifest
from .svgplot import Series, histogram_svg, line_svg, scatter_svg


class UsageError(Exception):
    """A bad flag or flag combination: exit 2 with one ``usage error:`` line."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors, its subcommands' too, are a ``UsageError``."""

    def error(self, message):
        raise UsageError(message)


def nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    value = nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be >= 1, got 0")
    return value


def finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def nonnegative_float(text: str) -> float:
    value = finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = nonnegative_float(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def unit_float(text: str) -> float:
    value = nonnegative_float(text)
    if value > 1:
        raise argparse.ArgumentTypeError(f"must be <= 1, got {value}")
    return value


def positive_unit_float(text: str) -> float:
    value = unit_float(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def dimension_pair(text: str) -> tuple[float, float]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}")
    width, height = positive_float(parts[0]), positive_float(parts[1])
    if not (in_domain(width) and in_domain(height)):
        raise argparse.ArgumentTypeError(f"{text!r}: sides must be {SIDE_RANGE}")
    return width, height


def floor_anchor(text: str) -> tuple[float, float] | None:
    if text.lower() == "none":
        return None
    return dimension_pair(text)


def anchor_list(text: str) -> tuple[tuple[float, float], ...]:
    pairs = tuple(dimension_pair(part) for part in text.split(",") if part)
    if not pairs:
        raise argparse.ArgumentTypeError("expected at least one WxH pair")
    return pairs


def _format_pairs(pairs) -> str:
    """``WxH,...`` text that ``anchor_list`` (or ``floor_anchor``) reads back exactly."""
    return ",".join(f"{format_coordinate(w)}x{format_coordinate(h)}" for w, h in pairs)


def layer_spec(text: str) -> tuple[int, ...] | None:
    if text.lower() == "auto":
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


# Manifest text of the flags whose parsed value is not a scalar, as their types read it back.
MANIFEST_TEXT = {
    "anchors": lambda pairs: _format_pairs(pairs or ()),
    "floor": lambda pair: "none" if pair is None else _format_pairs([pair]),
    "layers": lambda sizes: "auto" if sizes is None else ",".join(map(str, sizes)),
    "tp_conf": lambda pair: ",".join(map(format_coordinate, pair)),
    "fp_conf": lambda pair: ",".join(map(format_coordinate, pair)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxlab",
        description="Box-annotation statistics, anchor selection, and detection evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", type=Path, default=Path("boxlab-out"), help="directory for output files"
    )
    common.add_argument("--quiet", action="store_true", help="suppress stdout summary lines")

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("gt_dir", type=Path, help="directory of <image_id>.txt ground-truth files")
    corpus.add_argument(
        "--manifest",
        type=Path,
        default=None,
        help="CSV of image_id,width,height; without it dims are inferred from box extents",
    )

    stats = subparsers.add_parser(
        "stats",
        parents=[common, corpus],
        help="per-image counts, coverage, histograms, outlier flags",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    stats.add_argument(
        "--min-count", type=nonnegative_int, default=3, help="flag images with fewer heads than this"
    )
    stats.add_argument(
        "--min-coverage",
        type=nonnegative_float,
        default=0.05,
        help="flag images with a lower coverage fraction",
    )
    stats.add_argument("--bins", type=positive_int, default=20, help="histogram bin count")
    stats.set_defaults(func=cmd_stats)

    anchors = subparsers.add_parser(
        "anchors",
        parents=[common, corpus],
        help="select anchor boxes and report how well they cover the corpus",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    anchors.add_argument(
        "--method",
        choices=("kmeans", "linefit"),
        default="linefit",
        help="anchor selection strategy",
    )
    anchors.add_argument("--k", type=positive_int, default=9, help="kmeans: number of anchors")
    anchors.add_argument(
        "--distance",
        choices=("euclidean", "one_minus_iou"),
        default="one_minus_iou",
        help="kmeans: point-to-centroid distance",
    )
    anchors.add_argument(
        "--seed", type=nonnegative_int, default=0, help="kmeans: initialization seed"
    )
    anchors.add_argument(
        "--n-line", type=positive_int, default=9, help="linefit: anchors sampled along the fit"
    )
    anchors.add_argument(
        "--n-total", type=positive_int, default=13, help="linefit: total anchor budget"
    )
    anchors.add_argument(
        "--floor",
        type=floor_anchor,
        default=(10.0, 10.0),
        metavar="WxH",
        help="linefit: small fallback anchor, 'none' to disable (default: 10x10)",
    )
    anchors.add_argument(
        "--variance-bins",
        type=positive_int,
        default=10,
        help="linefit: width bins ranked by residual variance for the extra anchors",
    )
    anchors.add_argument(
        "--recall-threshold",
        type=positive_unit_float,
        default=0.5,
        help="centered-IoU threshold for the recall diagnostic",
    )
    anchors.add_argument(
        "--layers",
        type=layer_spec,
        default="auto",
        metavar="SIZES",
        help="mask sizes per detection layer; auto = 3,4,6 for 13 anchors, "
        "3,3,3 for 9, one layer otherwise",
    )
    anchors.add_argument(
        "--anchors",
        type=anchor_list,
        default=None,
        metavar="WxH,WxH,...",
        help="skip selection and use these anchors verbatim",
    )
    anchors.add_argument(
        "--compare",
        action="store_true",
        help="also report coverage for the other method's anchors",
    )
    anchors.add_argument(
        "--emit-darknet", action="store_true", help="write the detection-layer config fragment"
    )
    anchors.add_argument(
        "--classes", type=positive_int, default=1, help="class count for the config fragment"
    )
    anchors.set_defaults(func=cmd_anchors)

    evaluate_cmd = subparsers.add_parser(
        "eval",
        parents=[common, corpus],
        help="match predictions against ground truth; AP, mAP, count R²",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    evaluate_cmd.add_argument(
        "pred_dir", type=Path, help="directory of <image_id>.txt prediction files"
    )
    evaluate_cmd.add_argument(
        "--iou-threshold",
        type=positive_unit_float,
        default=0.70,
        help="minimum IoU for a detection to match a ground-truth box",
    )
    evaluate_cmd.add_argument(
        "--confidence-threshold",
        type=unit_float,
        default=0.5,
        help="detections at or above this confidence enter the predicted count",
    )
    evaluate_cmd.add_argument(
        "--r2-mode",
        choices=("pearson", "identity"),
        default="pearson",
        help="count agreement: squared correlation, or 1 - SSres/SStot about y=x",
    )
    evaluate_cmd.set_defaults(func=cmd_eval)

    synth = subparsers.add_parser(
        "synth",
        parents=[common],
        help="generate a synthetic corpus and, optionally, simulated predictions",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    synth.add_argument("--images", type=positive_int, required=True, help="number of images")
    synth.add_argument("--image-width", type=positive_float, default=1200.0)
    synth.add_argument("--image-height", type=positive_float, default=1200.0)
    synth.add_argument(
        "--count-mean", type=positive_float, default=103.0, help="mean boxes per image"
    )
    synth.add_argument(
        "--count-sd", type=nonnegative_float, default=25.0, help="spread of boxes per image"
    )
    synth.add_argument("--width-min", type=positive_float, default=8.0, help="smallest box width")
    synth.add_argument("--width-max", type=positive_float, default=90.0, help="largest box width")
    synth.add_argument(
        "--slope", type=finite_float, default=1.0, help="height = slope * width + intercept"
    )
    synth.add_argument("--intercept", type=finite_float, default=0.0)
    synth.add_argument(
        "--residual-sd",
        type=nonnegative_float,
        default=3.0,
        help="spread of heights about the line",
    )
    synth.add_argument("--class-name", default="object", help="label written for every box")
    synth.add_argument("--seed", type=nonnegative_int, default=0, help="generator seed")
    synth.add_argument(
        "--simulate", action="store_true", help="also write simulated detector output"
    )
    synth.add_argument(
        "--miss-rate",
        type=nonnegative_float,
        default=0.0,
        help="simulate: fraction of boxes the detector misses",
    )
    synth.add_argument(
        "--fp-rate",
        type=nonnegative_float,
        default=0.0,
        help="simulate: expected false positives per image",
    )
    synth.add_argument(
        "--jitter",
        type=nonnegative_float,
        default=0.0,
        help="simulate: per-edge Normal jitter in pixels",
    )
    synth.add_argument(
        "--tp-conf",
        type=nonnegative_float,
        nargs=2,
        default=(0.5, 1.0),
        metavar=("LOW", "HIGH"),
        help="simulate: confidence range for surviving boxes",
    )
    synth.add_argument(
        "--fp-conf",
        type=nonnegative_float,
        nargs=2,
        default=(0.05, 0.5),
        metavar=("LOW", "HIGH"),
        help="simulate: confidence range for false positives",
    )
    synth.add_argument(
        "--noise-seed", type=nonnegative_int, default=1, help="simulate: detector seed"
    )
    synth.set_defaults(func=cmd_synth)

    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_stats(args) -> None:
    from .datastats import compute_stats, flag_outliers, histogram

    dataset = load_dataset(args.gt_dir, args.manifest)
    stats = compute_stats(dataset)
    outliers = flag_outliers(stats, args.min_count, args.min_coverage)
    reasons: dict[str, list[str]] = {}
    for image_id, reason in outliers:
        reasons.setdefault(image_id, []).append(reason)

    out = args.out
    ids, counts, areas, coverages, inferred = zip(*map(astuple, stats.per_image))
    write_csv(
        out / "per_image.csv",
        ("image_id", "head_count", "total_box_area", "coverage_fraction", "dims_inferred",
         "outlier_reasons"),
        [[ids, np.array(counts), np.array(areas), np.array(coverages), np.array(inferred),
          ["; ".join(reasons.get(image_id, ())) for image_id in ids]]],
    )
    summary = {
        "images": str(stats.image_count),
        "total_heads": str(stats.total_heads),
        "mean_count": fmt_num(stats.mean_count),
        "sd_count": fmt_num(stats.sd_count),
    }
    for prefix, quantiles in (("count", stats.count_quantiles),
                              ("coverage", stats.coverage_quantiles)):
        for name, value in zip(("min", "q25", "median", "q75", "max"), quantiles):
            summary[f"{prefix}_{name}"] = fmt_num(value)
    summary["outliers"] = str(len(outliers))
    write_csv(out / "summary.csv", ("metric", "value"), [[list(summary), list(summary.values())]])

    for name, values, label in (
        ("count_hist", counts, "heads per image"),
        ("coverage_hist", coverages, "coverage fraction"),
    ):
        rows = histogram(values, args.bins)
        lefts, rights, tallies = zip(*rows)
        write_csv(
            out / f"{name}.csv",
            ("bin_left", "bin_right", "count"),
            [[np.array(lefts), np.array(rights), np.array(tallies)]],
        )
        svg = histogram_svg(rows, x_label=label, y_label="images", title=f"{label} distribution")
        atomic_write(out / f"{name}.svg", svg)

    _say(args, f"images = {stats.image_count}")
    _say(args, f"total heads = {stats.total_heads}")
    _say(args, f"mean count = {fmt_num(stats.mean_count)}")
    _say(args, f"sd count = {fmt_num(stats.sd_count)}")
    for image_id, reason in outliers:
        _say(args, f"outlier {image_id}: {reason}")


def cmd_anchors(args) -> None:
    from .anchorlab import (
        AnchorError,
        AnchorSet,
        DarknetConfigFragment,
        coverage,
        emit_darknet_fragment,
        kmeans_anchors,
        linefit_anchors,
    )
    from .datastats import extract_dims

    runs_linefit = args.compare or (args.anchors is None and args.method == "linefit")
    if runs_linefit and args.n_total < args.n_line + 1:
        raise UsageError(
            f"--n-total must be >= --n-line + 1, got --n-line {args.n_line} "
            f"--n-total {args.n_total}"
        )
    dataset = load_dataset(args.gt_dir, args.manifest)
    dims = extract_dims(dataset)
    if len(dims) == 0:
        raise DatasetError("corpus contains no boxes")

    selected: dict[str, AnchorSet] = {}
    if args.anchors is not None:
        method = "fixed"
        selected[method] = AnchorSet.from_dims(args.anchors)
    else:
        method = args.method
    if args.compare or method == "kmeans":
        selected.setdefault("kmeans", kmeans_anchors(dims, args.k, args.distance, args.seed))
    if runs_linefit:
        selected.setdefault(
            "linefit",
            linefit_anchors(dims, args.n_line, args.floor, args.n_total, args.variance_bins),
        )
    anchor_set = selected[method]

    try:
        fragment = DarknetConfigFragment(anchor_set, args.classes, args.layers)
    except AnchorError as exc:
        raise UsageError(f"--layers: {exc}") from None
    diagnostics = {
        name: coverage(dims, a_set, args.recall_threshold) for name, a_set in selected.items()
    }
    diag = diagnostics[method]

    out = args.out
    widths, heights = anchor_set.dims.T
    write_csv(
        out / "anchors.csv",
        ("index", "width", "height", "area", "assigned_count"),
        [[np.arange(len(anchor_set)), widths, heights, widths * heights,
          diag.per_anchor_assignment_counts]],
    )
    names = sorted(diagnostics)
    figures = [(diagnostics[n].mean_best_iou, diagnostics[n].recall_at_t,
                diagnostics[n].threshold_t) for n in names]
    write_csv(
        out / "coverage.csv",
        ("method", "anchor_count", "mean_best_iou", "recall_at_threshold", "threshold"),
        [[names, np.array([len(selected[n]) for n in names]), *np.array(figures).T]],
    )
    write_csv(
        out / "dims_anchors.csv",
        ("series", "width", "height"),
        [["box", *dims.T], ["anchor", widths, heights]],
    )
    svg = scatter_svg(
        [Series("boxes", dims, "circle"), Series("anchors", anchor_set.dims, "cross")],
        x_label="width (px)",
        y_label="height (px)",
        title="box dimensions and anchors",
        annotation=f"mean best IoU = {diag.mean_best_iou:.4f}",
    )
    atomic_write(out / "dims_anchors.svg", svg)
    if args.emit_darknet:
        atomic_write(out / "darknet.cfg", emit_darknet_fragment(fragment))

    rendered = ", ".join(f"{fmt_num(w)}x{fmt_num(h)}" for w, h in anchor_set.dims.tolist())
    _say(args, f"anchors ({method}) = {rendered}")
    _say(args, f"mean_best_iou = {diag.mean_best_iou:.4f}")
    _say(args, f"recall@{fmt_num(diag.threshold_t)} = {diag.recall_at_t:.4f}")
    if args.compare:
        for name, d in sorted(diagnostics.items()):
            if name != method:
                _say(args, f"compare {name}: mean_best_iou = {d.mean_best_iou:.4f}, "
                           f"recall@{fmt_num(d.threshold_t)} = {d.recall_at_t:.4f}")


def _overlay_blocks(ann, pred, verdicts) -> list[list]:
    """Per-image overlay blocks: every gt box, then every detection, with its verdict.

    ``pred`` is the image's ImageDetections, or None without a prediction
    file. ``verdicts`` holds this image's rows of the evaluation's table.
    A detection whose class has no ground truth in the image stays
    ``ignored`` here, although AP ranks it as a false positive.
    """
    gt_verdicts, gt_partners = ["missed"] * len(ann), [""] * len(ann)
    pred_blocks = []
    if pred is not None:
        gt_classes = set(ann.class_names)
        det_verdicts, det_partners = ["ignored"] * len(pred), [""] * len(pred)
        for i, j in zip(verdicts.det_index.tolist(), verdicts.matched_gt.tolist()):
            if j >= 0:
                det_verdicts[i], det_partners[i] = "tp", str(j)
                gt_verdicts[j], gt_partners[j] = "matched", str(i)
            elif pred.class_names[i] in gt_classes:
                det_verdicts[i] = "fp"
        pred_blocks.append(
            ["pred", pred.class_names, pred.confidences, *pred.edges.T, det_verdicts, det_partners]
        )
    return [["gt", ann.class_names, "", *ann.edges.T, gt_verdicts, gt_partners], *pred_blocks]


def cmd_eval(args) -> None:
    from .evalcore import evaluate

    gt = load_dataset(args.gt_dir, args.manifest)
    predictions = load_predictions_dir(args.pred_dir)
    report = evaluate(
        gt,
        predictions,
        iou_threshold=args.iou_threshold,
        confidence_threshold=args.confidence_threshold,
        r2_mode=args.r2_mode,
    )

    out = args.out
    r2_cell = "n/a" if report.r_squared is None else fmt_num(report.r_squared)
    report_rows = [("map", fmt_num(report.map_score))]
    report_rows += [
        (f"ap.{name}", fmt_num(ap)) for name, ap in sorted(report.ap_per_class.items())
    ]
    report_rows += [
        ("r_squared", r2_cell),
        ("r2_mode", args.r2_mode),
        ("iou_threshold", fmt_num(report.iou_threshold)),
        ("confidence_threshold", fmt_num(report.confidence_threshold)),
        ("images", str(len(gt))),
        ("total_gt_boxes", str(gt.total_boxes)),
        ("total_detections", str(sum(len(p) for p in predictions.values()))),
    ]
    write_csv(out / "report.csv", ("metric", "value"), [list(zip(*report_rows))])

    curves = sorted(report.pr_per_class.items())
    pr_blocks = []
    for class_name, curve in curves:
        ranks = np.arange(1, len(curve.recall) + 1)
        pr_blocks.append([class_name, ranks, curve.confidences, curve.precision, curve.recall])
    write_csv(
        out / "pr_curve.csv", ("class", "rank", "confidence", "precision", "recall"), pr_blocks
    )
    pr_series = [
        Series(class_name, np.column_stack((curve.recall, curve.precision)), "line")
        for class_name, curve in curves
    ]
    pr_svg = line_svg(
        pr_series,
        x_label="recall",
        y_label="precision",
        title="precision-recall",
        annotation=f"mAP = {report.map_score:.4f}",
        x_range=(0.0, 1.0),
        y_range=(0.0, 1.0),
    )
    atomic_write(out / "pr_curve.svg", pr_svg)

    ids, true_counts, predicted_counts = zip(*report.count_pairs)
    write_csv(
        out / "counts.csv",
        ("image_id", "true_count", "predicted_count"),
        [[ids, np.array(true_counts), np.array(predicted_counts)]],
    )
    r2_text = "n/a" if report.r_squared is None else f"{report.r_squared:.4f}"
    counts_svg = scatter_svg(
        [Series("images", np.column_stack((true_counts, predicted_counts)), "circle")],
        x_label="true count",
        y_label="predicted count",
        title="per-image count agreement",
        annotation=f"R^2 = {r2_text} ({args.r2_mode})",
        identity=True,
    )
    atomic_write(out / "counts.svg", counts_svg)

    overlay_dir = out / "overlays"
    bounds = np.searchsorted(report.verdicts.image, np.arange(len(gt) + 1)).tolist()
    for position, ann in enumerate(gt):
        write_csv(
            overlay_dir / f"{ann.image_id}.csv",
            ("kind", "class", "confidence", "left", "top", "right", "bottom", "verdict",
             "partner_index"),
            _overlay_blocks(ann, predictions.get(ann.image_id),
                            report.verdicts[bounds[position]:bounds[position + 1]]),
        )

    _say(args, f"mAP = {report.map_score:.4f}")
    _say(args, f"R^2 = {r2_text}")


def cmd_synth(args) -> None:
    from .synthgen import DetectorNoise, SynthConfig, SynthError, generate_dataset, simulate_detector

    try:
        config = SynthConfig(
            n_images=args.images,
            image_width=args.image_width,
            image_height=args.image_height,
            count_mean=args.count_mean,
            count_sd=args.count_sd,
            width_range=(args.width_min, args.width_max),
            line_slope=args.slope,
            line_intercept=args.intercept,
            residual_sd=args.residual_sd,
            class_name=args.class_name,
            seed=args.seed,
        )
        noise = DetectorNoise(
            miss_rate=args.miss_rate,
            false_positive_rate=args.fp_rate,
            jitter_sd=args.jitter,
            tp_confidence=tuple(args.tp_conf),
            fp_confidence=tuple(args.fp_conf),
            seed=args.noise_seed,
        )
    except SynthError as exc:
        raise UsageError(str(exc)) from None
    out = args.out
    for directory in (out / "gt", out / "pred"):
        if (directory / "manifest.csv").exists() or any(directory.glob("*.txt")):
            raise UsageError(f"{directory} already holds a corpus; give synth a new --out")

    dataset = generate_dataset(config)
    save_dataset(dataset, out / "gt")
    _say(args, f"wrote {len(dataset)} images, {dataset.total_boxes} boxes to {out / 'gt'}")
    if args.simulate:
        predictions = simulate_detector(dataset, noise)
        save_predictions(predictions, out / "pred")
        total = sum(len(p) for p in predictions.values())
        _say(args, f"wrote {total} detections to {out / 'pred'}")


def _write_manifest(args) -> None:
    """``run_manifest.txt`` from every parsed flag but ``--out`` and ``--quiet``.

    The path arguments become absolute ``input.*`` lines, ``--seed`` then
    ``--noise-seed`` make up ``seeds``, and every other flag is a ``param.*``.
    """
    values = vars(args).copy()
    for name in ("command", "func", "out", "quiet"):
        del values[name]
    paths = {
        name: values.pop(name) for name in ("gt_dir", "pred_dir", "manifest") if name in values
    }
    seeds = [values.pop(name) for name in ("seed", "noise_seed") if name in values]
    write_run_manifest(
        args.out,
        args.command,
        parameters={
            name: MANIFEST_TEXT[name](value) if name in MANIFEST_TEXT else value
            for name, value in values.items()
        },
        inputs={name: None if path is None else path.absolute() for name, path in paths.items()},
        seeds=seeds,
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        _write_manifest(args)
        return 0
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
