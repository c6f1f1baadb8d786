"""Output checks applied to every operation the benchmark runs.

An operation passes when it exits 0, prints its summary lines, writes
well-formed SVG, and its byte-stable outputs match either a stored
reference (digests recorded at a known-good commit) or, for inputs with no
stored reference, the same results computed in-process through the boxlab
library.  Once one invocation of an operation has passed that way, later
invocations in the run must reproduce its digests exactly.

SVGs are only parsed, not digested, so a change to how plots render does
not count as a wrong answer; ``run_manifest.txt`` carries a timestamp and
is skipped; files not listed here are ignored.
"""

from __future__ import annotations

import csv
import hashlib
import xml.etree.ElementTree as ET
from pathlib import Path

# Byte-stable outputs per command, digested; a glob digests the whole set.
DIGESTED = {
    "synth": ("gt/*.txt", "gt/manifest.csv", "pred/*.txt"),
    "stats": ("per_image.csv", "summary.csv", "count_hist.csv", "coverage_hist.csv"),
    "anchors": ("anchors.csv", "coverage.csv", "dims_anchors.csv", "darknet.cfg"),
    "eval": ("report.csv", "pr_curve.csv", "counts.csv", "overlays/*.csv"),
}
SVGS = {
    "synth": (),
    "stats": ("count_hist.svg", "coverage_hist.svg"),
    "anchors": ("dims_anchors.svg",),
    "eval": ("pr_curve.svg", "counts.svg"),
}
# Stdout lines that must be present; they are also part of the fingerprint.
STDOUT = {
    "synth": (),
    "stats": ("images = ", "total heads = ", "mean count = "),
    "anchors": ("anchors (", "mean_best_iou = ", "recall@"),
    "eval": ("mAP = ", "R^2 = "),
}


def _digest_paths(root: Path, paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()[:32]


def fingerprint(kind: str, out: Path, stdout: str) -> dict:
    """Digests of the byte-stable outputs (None where absent) plus the summary lines."""
    files = {}
    for pattern in DIGESTED[kind]:
        paths = sorted(out.glob(pattern))
        files[pattern] = _digest_paths(out, paths) if paths else None
    lines = [line for line in stdout.splitlines() if line.startswith(STDOUT[kind])]
    return {"files": files, "stdout": lines}


def _structural_failure(kind: str, out: Path, stdout: str) -> str | None:
    for prefix in STDOUT[kind]:
        if not any(line.startswith(prefix) for line in stdout.splitlines()):
            return f"stdout lacks a {prefix.strip()!r} line"
    for name in SVGS[kind]:
        try:
            root = ET.parse(out / name).getroot()
        except (OSError, ET.ParseError) as exc:
            return f"{name}: {exc}"
        if not root.tag.endswith("svg"):
            return f"{name}: root element is {root.tag!r}"
    return None


def _diff(expected: dict, actual: dict) -> str:
    keys = [k for k in expected["files"] if expected["files"][k] != actual["files"].get(k)]
    if expected["stdout"] != actual["stdout"]:
        keys.append("stdout")
    return ", ".join(keys)


class Verifier:
    """Checks every invocation of one run; ``references`` maps op name to fingerprint."""

    def __init__(self, references: dict):
        self.references = dict(references)
        self.verified: dict[str, dict] = {}  # fingerprints that passed the oracle

    def check(self, op, exit_code: int, stdout: str) -> str | None:
        """Return why the invocation is wrong, or None when it is right."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        failure = _structural_failure(op.kind, op.out, stdout)
        if failure:
            return failure
        actual = fingerprint(op.kind, op.out, stdout)
        expected = self.references.get(op.name) or self.verified.get(op.name)
        if expected is not None:
            diff = _diff(expected, actual)
            return f"differs from reference: {diff}" if diff else None
        try:
            failure = ORACLES[op.kind](op, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failure = f"oracle could not read the outputs: {exc!r}"
        if failure is None:
            self.verified[op.name] = actual
        return failure


# --- in-process oracles -----------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _table(path: Path) -> dict[str, str]:
    return {row[0]: row[1] for row in _rows(path)[1:]}


def _expect(label: str, expected, actual) -> str | None:
    if expected == actual:
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = sorted(set(expected) | set(actual), key=str)
        expected = {k: expected.get(k) for k in keys if expected.get(k) != actual.get(k)}
        actual = {k: actual.get(k) for k in expected}
    return f"{label}: expected {expected!r}, got {actual!r}"[:500]


def _first(*failures) -> str | None:
    return next((f for f in failures if f), None)


def _synth_oracle(op, stdout: str) -> str | None:
    from boxlab.annotations import format_coordinate, format_ground_truth, format_predictions
    from boxlab.synthgen import DetectorNoise, SynthConfig, generate_dataset, simulate_detector

    dataset = generate_dataset(SynthConfig(**op.params["config"]))
    expected = {f"gt/{ann.image_id}.txt": format_ground_truth(ann) for ann in dataset}
    expected["gt/manifest.csv"] = "image_id,width,height\n" + "".join(
        f"{a.image_id},{format_coordinate(a.width)},{format_coordinate(a.height)}\n"
        for a in dataset
    )
    if op.params["noise"] is not None:
        predictions = simulate_detector(dataset, DetectorNoise(**op.params["noise"]))
        expected.update(
            {f"pred/{i}.txt": format_predictions(p) for i, p in predictions.items()}
        )
    written = {
        str(p.relative_to(op.out)): p
        for sub in ("gt", "pred") for p in (op.out / sub).glob("*") if p.is_file()
    }
    if set(written) != set(expected):
        return f"file set differs: {len(written)} written, {len(expected)} expected"
    for name, text in expected.items():
        if written[name].read_text(encoding="utf-8") != text:
            return f"{name} differs from the generator's output"
    return None


def _stats_oracle(op, stdout: str) -> str | None:
    from boxlab.annotations import load_dataset
    from boxlab.datastats import compute_stats, flag_outliers, histogram
    from boxlab.reports import fmt_num

    stats = compute_stats(load_dataset(op.params["gt"], op.params["manifest"]))
    summary = _table(op.out / "summary.csv")
    names = ("min", "q25", "median", "q75", "max")
    expected = {
        "images": str(stats.image_count),
        "total_heads": str(stats.total_heads),
        "mean_count": fmt_num(stats.mean_count),
        "sd_count": fmt_num(stats.sd_count),
        "outliers": str(len(flag_outliers(stats))),
        **{f"count_{n}": fmt_num(v) for n, v in zip(names, stats.count_quantiles)},
        **{f"coverage_{n}": fmt_num(v) for n, v in zip(names, stats.coverage_quantiles)},
    }
    per_image = _rows(op.out / "per_image.csv")[1:]
    counts = [s.head_count for s in stats.per_image]
    hist = [int(row[2]) for row in _rows(op.out / "count_hist.csv")[1:]]
    return _first(
        _expect("summary.csv", expected, summary),
        _expect("per_image.csv counts", [str(c) for c in counts], [r[1] for r in per_image]),
        _expect("count_hist.csv", [c for _, _, c in histogram(counts)], hist),
        _expect("stdout images", f"images = {stats.image_count}", stdout.splitlines()[0]),
    )


def _anchors_oracle(op, stdout: str) -> str | None:
    from boxlab.anchorlab import coverage, kmeans_anchors, linefit_anchors, parse_darknet_fragment
    from boxlab.annotations import load_dataset
    from boxlab.datastats import extract_dims
    from boxlab.reports import fmt_num

    p = op.params
    dims = extract_dims(load_dataset(p["gt"], p["manifest"]))
    selected = {}
    if p["compare"] or p["method"] == "kmeans":
        selected["kmeans"] = kmeans_anchors(dims, 9, p["distance"], 0)
    if p["compare"] or p["method"] == "linefit":
        selected["linefit"] = linefit_anchors(dims)
    chosen = selected[p["method"]]
    diagnostics = {name: coverage(dims, a) for name, a in sorted(selected.items())}
    anchors = [(r[1], r[2]) for r in _rows(op.out / "anchors.csv")[1:]]
    cov = [(r[0], r[1], r[2]) for r in _rows(op.out / "coverage.csv")[1:]]
    failure = _first(
        _expect("anchors.csv", [(fmt_num(w), fmt_num(h)) for w, h in chosen.pairs()], anchors),
        _expect(
            "coverage.csv",
            [(n, str(len(selected[n])), fmt_num(d.mean_best_iou)) for n, d in diagnostics.items()],
            cov,
        ),
        _expect("dims_anchors.csv rows", len(dims) + len(chosen),
                len(_rows(op.out / "dims_anchors.csv")) - 1),
        _expect("stdout mean_best_iou",
                f"mean_best_iou = {diagnostics[p['method']].mean_best_iou:.4f}",
                next(l for l in stdout.splitlines() if l.startswith("mean_best_iou"))),
    )
    if failure is None and p["emit_darknet"]:
        fragment = parse_darknet_fragment((op.out / "darknet.cfg").read_text(encoding="utf-8"))
        failure = _expect("darknet.cfg anchors", chosen.pairs(), fragment.anchors.pairs())
    return failure


def _eval_oracle(op, stdout: str) -> str | None:
    from boxlab.annotations import load_dataset, load_predictions_dir
    from boxlab.evalcore import evaluate
    from boxlab.reports import fmt_num

    p = op.params
    gt = load_dataset(p["gt"], p["manifest"])
    predictions = load_predictions_dir(p["pred"])
    report = evaluate(gt, predictions)
    table = _table(op.out / "report.csv")
    counts = [tuple(r) for r in _rows(op.out / "counts.csv")[1:]]
    pr_rows = len(_rows(op.out / "pr_curve.csv")) - 1
    r2 = "n/a" if report.r_squared is None else f"{report.r_squared:.4f}"
    overlays = sorted((op.out / "overlays").glob("*.csv"))
    verdicts: dict[str, int] = {}
    overlay_rows = 0
    for path in overlays:
        rows = _rows(path)[1:]
        overlay_rows += len(rows)
        for row in rows:
            verdicts[row[7]] = verdicts.get(row[7], 0) + 1
    total_gt = {c: 0 for c in report.ap_per_class}
    for ann in gt:
        for box in ann.boxes:
            total_gt[box.class_name] += 1
    true_positives = sum(
        round(curve.points[-1][0] * total_gt[c]) if curve.points else 0
        for c, curve in report.pr_per_class.items()
    )
    total_dets = sum(len(d) for d in predictions.values())
    return _first(
        _expect("report.csv map", fmt_num(report.map_score), table.get("map")),
        *(_expect(f"report.csv ap.{c}", fmt_num(ap), table.get(f"ap.{c}"))
          for c, ap in report.ap_per_class.items()),
        _expect("counts.csv", [(i, str(t), str(n)) for i, t, n in report.count_pairs], counts),
        _expect("pr_curve.csv rows", sum(len(c.points) for c in report.pr_per_class.values()),
                pr_rows),
        _expect("overlay files", [f"{a.image_id}.csv" for a in gt], [o.name for o in overlays]),
        _expect("overlay rows", gt.total_boxes + total_dets, overlay_rows),
        _expect("overlay tp rows", true_positives, verdicts.get("tp", 0)),
        _expect("stdout", [f"mAP = {report.map_score:.4f}", f"R^2 = {r2}"],
                [l for l in stdout.splitlines() if l.startswith(STDOUT["eval"])]),
    )


ORACLES = {
    "synth": _synth_oracle,
    "stats": _stats_oracle,
    "anchors": _anchors_oracle,
    "eval": _eval_oracle,
}


def corrupt(path: Path) -> None:
    """Flip the last byte of a file: used by the smoke mode to prove checks bite."""
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))

