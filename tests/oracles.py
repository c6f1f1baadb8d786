"""Independent reference implementations the fast code is checked against.

Everything here trades speed for obviousness: IoU by literally counting
pixels on a grid, AP by scanning every confidence cutoff or by a
rank-by-rank loop, correlation via numpy's own corrcoef, annotation files
one line and one check at a time, CSV reports one cell at a time through
``csv.writer``, chart markers one f-string per marker, k-means seeded by
numpy's own ``Generator`` and with a full cost matrix on every iteration,
distinct chart pixels by ``np.unique`` over whole rows,
the detector simulator one box at a time in scalar arithmetic. None of it
shares code with the package.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

# The coordinate domain, restated: edges in [0, 2**50], sides of at least 2**-50.
MAX_COORDINATE = 2.0**50
MIN_SIDE = 2.0**-50


def raster_iou(a, b, frame: int = 512) -> float:
    """IoU of two integer-coordinate (left, top, right, bottom) rows by counting unit pixels.

    A pixel (column i, row j) is covered when left <= i < right and
    top <= j < bottom, which is exactly the continuous-edge area rule.
    """
    grids = []
    for left, top, right, bottom in (a, b):
        for value in (left, top, right, bottom):
            assert float(value).is_integer(), "raster oracle needs integer boxes"
        assert 0 <= left < right <= frame and 0 <= top < bottom <= frame
        grid = np.zeros((frame, frame), dtype=bool)
        grid[int(top) : int(bottom), int(left) : int(right)] = True
        grids.append(grid)
    grid_a, grid_b = grids
    inter = int(np.logical_and(grid_a, grid_b).sum())
    union = int(np.logical_or(grid_a, grid_b).sum())
    return inter / union


def reference_anchor_order(dims) -> list[tuple[float, float]]:
    """Distinct (width, height) pairs as floats, sorted by area, then width, then height."""
    return sorted(set((float(w), float(h)) for w, h in dims), key=lambda p: (p[0] * p[1], p))


def raster_centered_iou(wa: int, ha: int, wb: int, hb: int) -> float:
    """Centered IoU of two integer dimension pairs by pixel counting.

    Both rectangles are doubled so each half-extent is an integer, then
    placed about a common center; IoU is scale invariant so the doubling
    changes nothing.
    """
    size = 2 * max(wa, ha, wb, hb) + 4
    center = size // 2
    grid_a = np.zeros((size, size), dtype=bool)
    grid_b = np.zeros((size, size), dtype=bool)
    grid_a[center - ha : center + ha, center - wa : center + wa] = True
    grid_b[center - hb : center + hb, center - wb : center + wb] = True
    inter = int(np.logical_and(grid_a, grid_b).sum())
    union = int(np.logical_or(grid_a, grid_b).sum())
    return inter / union


def cutoff_scan_ap(ranked: list[tuple[float, str, int, bool]], total_gt: int) -> float:
    """AP by enumerating every confidence cutoff.

    ``ranked`` holds (confidence, image_id, det_index, is_tp) tuples in any
    order; they are sorted here with the documented key. Each cutoff keeps a
    prefix of the ranking; the precision credited to a recall step is the
    best precision among cutoffs that reach at least that recall, i.e. the
    max prefix precision at or after the step.
    """
    ordered = sorted(ranked, key=lambda r: (-r[0], r[1], r[2]))
    flags = [is_tp for _, _, _, is_tp in ordered]
    n = len(flags)
    tp_at = np.cumsum(flags) if n else np.array([], dtype=int)
    ap = 0.0
    for k in range(n):
        if flags[k]:
            best_precision = max(tp_at[j] / (j + 1) for j in range(k, n))
            ap += best_precision / total_gt
    return ap


def reference_average_precision(matches, total_gt: int):
    """(points, confidences, ap) from one rank-by-rank loop over the sorted verdicts.

    ``matches`` holds objects with ``image_id`` and ``verdicts`` (each with
    ``confidence``, ``det_index`` and ``is_tp``). The ranking is a stable
    sort by (confidence descending, image id, detection index); each rank
    appends (recall, precision), and AP sums the recall steps times the
    running maximum of precision taken from the last rank back.
    """
    ranked = sorted(
        ((v, m.image_id) for m in matches for v in m.verdicts),
        key=lambda item: (-item[0].confidence, item[1], item[0].det_index),
    )
    points = []
    confidences = []
    true_positives = 0
    for rank, (verdict, _) in enumerate(ranked, start=1):
        true_positives += verdict.is_tp
        points.append((true_positives / total_gt, true_positives / rank))
        confidences.append(verdict.confidence)
    envelope = [0.0] * len(points)
    running = 0.0
    for i in range(len(points) - 1, -1, -1):
        running = max(running, points[i][1])
        envelope[i] = running
    terms = []
    previous_recall = 0.0
    for (recall, _), precision in zip(points, envelope):
        if recall > previous_recall:
            terms.append((recall - previous_recall) * precision)
            previous_recall = recall
    return tuple(points), tuple(confidences), math.fsum(terms)


def _box_iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def _class_blind_greedy(gt_boxes, dets, iou_threshold):
    """Greedy match of (confidence, box) detections to boxes, ignoring classes.

    Detections go in descending confidence (ties keep input order); each
    takes the first unmatched box of highest IoU if it reaches the threshold.
    Yields (det, confidence, is_tp, box or None, iou) in that order.
    """
    matched = [False] * len(gt_boxes)
    for i in sorted(range(len(dets)), key=lambda i: -dets[i][0]):
        confidence, box = dets[i]
        best, best_j = -1.0, None
        for j, gt_box in enumerate(gt_boxes):
            value = _box_iou(box, gt_box)
            if not matched[j] and value > best:
                best, best_j = value, j
        if best >= iou_threshold:
            matched[best_j] = True
            yield i, confidence, True, best_j, best
        else:
            yield i, confidence, False, None, max(best, 0.0)


def reference_class_matches(images, iou_threshold):
    """Per-class matching by subsetting each image per class.

    ``images`` holds (image_id, gt_rows, det_rows) with rows as returned by
    the reference parsers below. Classes are those with ground truth
    anywhere. Returns {class: [(image_id, gt_count, verdicts), ...]} in
    image order, where each verdict is (det_index, confidence, is_tp,
    gt_index or None, iou) with indices into the whole image, not the subset.
    """
    classes = sorted({row[0] for _, gt_rows, _ in images for row in gt_rows})
    result = {name: [] for name in classes}
    for image_id, gt_rows, det_rows in images:
        for name in classes:
            gt_index = [i for i, row in enumerate(gt_rows) if row[0] == name]
            det_index = [i for i, row in enumerate(det_rows) if row[0] == name]
            verdicts = _class_blind_greedy(
                [gt_rows[i][1:] for i in gt_index],
                [(det_rows[i][1], det_rows[i][2:]) for i in det_index],
                iou_threshold,
            )
            result[name].append((
                image_id,
                len(gt_index),
                [
                    (det_index[d], c, tp, None if g is None else gt_index[g], value)
                    for d, c, tp, g, value in verdicts
                ],
            ))
    return result


def _iou_matrix(a, b):
    """Pairwise IoU of (n, 4) and (m, 4) edge arrays, in the package's per-element operations."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def _image_table(gt_names, gt_edges, pred_names, pred_edges, confidences, iou_threshold):
    """One image's verdict columns from the per-image greedy loop over its full IoU matrix."""
    matrix = _iou_matrix(pred_edges, gt_edges)
    order = np.argsort(-confidences, kind="stable")
    matched = [False] * len(gt_names)
    partners, ious = np.full(len(pred_names), -1), np.zeros(len(pred_names))
    for rank, i in enumerate(order.tolist()):
        best, best_j = 0.0, None
        for j in range(len(gt_names)):
            value = float(matrix[i, j])
            if gt_names[j] == pred_names[i] and value > best and not matched[j]:
                best, best_j = value, j
        ious[rank] = best
        if best >= iou_threshold:
            matched[best_j] = True
            partners[rank] = best_j
    return {"det_index": order, "confidence": confidences[order], "is_tp": partners >= 0,
            "matched_gt": partners, "iou": ious}


def _ranked_curve(columns, total_gt: int):
    """(recall, precision, confidences, ap) of a table, ranked by one lexsort of all its rows."""
    order = np.lexsort((columns["det_index"], columns["image"], -columns["confidence"]))
    true_positives = np.cumsum(columns["is_tp"][order], dtype=np.int64)
    recall = true_positives / total_gt
    precision = true_positives / np.arange(1, len(order) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = math.fsum((np.diff(recall, prepend=0.0) * envelope).tolist())
    return recall, precision, columns["confidence"][order], ap


def reference_mean_average_precision(gt, predictions, iou_threshold):
    """Corpus verdicts and per-class curves as one table per image, joined and split by masks.

    ``gt`` iterates images (with ``image_id``, ``class_names`` and ``edges``)
    in corpus order; ``predictions`` maps an image id to its detections, and
    an image may have none. Each image is matched on its own, the tables are
    concatenated with ``image`` set to the corpus position, and each class
    with ground truth takes its rows by a mask and ranks them. Returns the
    verdict columns of the rows whose class has ground truth, by name, and
    {class: (recall, precision, confidences, ap)} in sorted class order.
    """
    totals: dict[str, int] = {}
    for ann in gt:
        for name in ann.class_names:
            totals[name] = totals.get(name, 0) + 1
    codes = {name: code for code, name in enumerate(sorted(totals))}
    tables, class_codes = [], []
    for position, ann in enumerate(gt):
        pred = predictions.get(ann.image_id)
        names = () if pred is None else pred.class_names
        edges = np.zeros((0, 4)) if pred is None else pred.edges
        confidences = np.zeros(0) if pred is None else pred.confidences
        table = _image_table(ann.class_names, ann.edges, names, edges, confidences, iou_threshold)
        table["image"] = np.full(len(names), position, np.int64)
        tables.append(table)
        class_codes += [codes.get(names[i], -1) for i in table["det_index"].tolist()]
    columns = {
        name: np.concatenate([table[name] for table in tables])
        for name in ("image", "det_index", "confidence", "is_tp", "matched_gt", "iou")
    }
    class_codes = np.array(class_codes, np.int64)
    curves = {
        name: _ranked_curve({k: v[class_codes == code] for k, v in columns.items()}, totals[name])
        for name, code in codes.items()
    }
    return {name: column[class_codes >= 0] for name, column in columns.items()}, curves


def pearson_r_squared(true_counts, predicted_counts) -> float:
    """Squared correlation straight from numpy's corrcoef."""
    r = np.corrcoef(np.asarray(true_counts, float), np.asarray(predicted_counts, float))[0, 1]
    return float(r * r)


def bin_residual_variances(widths, heights, slope, intercept, bins):
    """Residual variance per equal-count width bin, lowest bin first."""
    widths = np.asarray(widths, float)
    residuals = np.asarray(heights, float) - (slope * widths + intercept)
    edges = np.quantile(widths, np.linspace(0.0, 1.0, bins + 1))
    index = np.clip(np.searchsorted(edges[1:-1], widths, side="right"), 0, bins - 1)
    return [
        float(residuals[index == b].var()) if np.any(index == b) else None for b in range(bins)
    ]


def _reference_costs(points, centroids, distance):
    """Full (n, k) cost matrix: squared Euclidean, or 1 - centred IoU."""
    if distance == "euclidean":
        deltas = points[:, None, :] - centroids[None, :, :]
        return np.sum(deltas * deltas, axis=2)
    a, b = points, centroids
    inter = np.minimum(a[:, None, 0], b[None, :, 0]) * np.minimum(a[:, None, 1], b[None, :, 1])
    union = (a[:, 0] * a[:, 1])[:, None] + (b[:, 0] * b[:, 1])[None, :] - inter
    return 1.0 - inter / union


def reference_kmeans_pp_init(points, k, distance, seed) -> list[int]:
    """Indices of k seed points drawn by numpy's own ``default_rng(seed)``.

    The first is ``integers(n)``; each next is ``choice(n, p=...)`` with
    weight cost² to the nearest chosen point, as the package seeds.
    """
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(len(points)))]
    nearest = _reference_costs(points, points[chosen], distance)[:, 0]
    while len(chosen) < k:
        weights = nearest * nearest
        chosen.append(int(rng.choice(len(points), p=weights / weights.sum())))
        nearest = np.minimum(nearest, _reference_costs(points, points[chosen[-1:]], distance)[:, 0])
    return chosen


def reference_run_kmeans(dims, k, distance, seed, max_iterations=1000):
    """The plain Lloyd loop: every point-centroid cost on every iteration.

    Seeds come from ``reference_kmeans_pp_init``.
    Returns (centroids, labels, objective_history).
    """
    points = np.asarray(dims, dtype=float)
    centroids = points[reference_kmeans_pp_init(points, k, distance, seed)].copy()

    rows = np.arange(len(points))
    costs = _reference_costs(points, centroids, distance)
    labels = None
    history: list[float] = []
    for _ in range(max_iterations):
        new_labels = np.argmin(costs, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            in_cluster = labels == j
            members = points[in_cluster]
            if len(members) == 0:
                continue
            candidate = members.mean(axis=0)
            if distance == "one_minus_iou":
                old_cost = costs[in_cluster, j].sum()
                new_cost = _reference_costs(members, candidate[None, :], distance).sum()
                if new_cost > old_cost:
                    continue
            centroids[j] = candidate
        # One cost matrix per iteration: this objective and the next assignment.
        costs = _reference_costs(points, centroids, distance)
        history.append(float(costs[rows, labels].sum()))
    return centroids, labels, tuple(history)


class ReferenceParseError(ValueError):
    """The first malformed line of a file: its 1-based number and the reason."""

    def __init__(self, reason: str, line: int):
        super().__init__(f"line {line}: {reason}")
        self.reason = reason
        self.line = line


def _reference_number(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ReferenceParseError(f"non-numeric {what}: {token!r}", line) from None
    if not math.isfinite(value):
        raise ReferenceParseError(f"non-finite {what}: {token!r}", line)
    return value


def _reference_box(tokens: list[str], line: int) -> tuple[float, float, float, float]:
    names = ("left", "top", "right", "bottom")
    left, top, right, bottom = (
        _reference_number(tok, name, line) for tok, name in zip(tokens, names)
    )
    if left < 0 or top < 0:
        raise ReferenceParseError(
            f"negative coordinate in box {(left, top, right, bottom)}", line
        )
    if right <= left:
        raise ReferenceParseError(f"zero-width box: right {right} <= left {left}", line)
    if bottom <= top:
        raise ReferenceParseError(f"zero-height box: bottom {bottom} <= top {top}", line)
    width, height = right - left, bottom - top
    if right > MAX_COORDINATE or bottom > MAX_COORDINATE or width < MIN_SIDE or height < MIN_SIDE:
        raise ReferenceParseError(
            "box outside the coordinate domain (edges at most 2**50, sides at least 2**-50): "
            f"{(left, top, right, bottom)}",
            line,
        )
    return (left, top, right, bottom)


def _reference_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield number, line.split()


def reference_parse_ground_truth(text: str) -> list[tuple[str, float, float, float, float]]:
    """(class, left, top, right, bottom) per non-blank line, checked line by line."""
    rows = []
    for number, tokens in _reference_lines(text):
        if len(tokens) != 5:
            raise ReferenceParseError(f"expected 5 fields, found {len(tokens)}", number)
        rows.append((tokens[0], *_reference_box(tokens[1:], number)))
    return rows


def reference_parse_predictions(text: str) -> list[tuple[str, float, float, float, float, float]]:
    """(class, confidence, left, top, right, bottom) per non-blank line, checked line by line."""
    rows = []
    for number, tokens in _reference_lines(text):
        if len(tokens) != 6:
            raise ReferenceParseError(f"expected 6 fields, found {len(tokens)}", number)
        confidence = _reference_number(tokens[1], "confidence", number)
        box = _reference_box(tokens[2:], number)
        if not 0.0 <= confidence <= 1.0:
            raise ReferenceParseError(f"confidence out of range [0, 1]: {confidence!r}", number)
        rows.append((tokens[0], confidence, *box))
    return rows


def _reference_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = format(float(value), ".6g")
        return "0" if text == "-0" else text
    if value is None:
        return ""
    return str(value)


def reference_write_csv(path, header, rows) -> None:
    """The report CSV writer: each cell formatted on its own, then ``csv.writer``.

    Floats take 6 significant digits with "-0" written as "0", bools
    ``true``/``false``, None an empty field; anything else goes through
    ``str``. Fields are quoted minimally, and lines end in LF.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_reference_cell(cell) for cell in row])
    Path(path).write_text(buffer.getvalue(), encoding="utf-8", newline="\n")


def reference_series_markup(series, sx, sy, palette) -> list[str]:
    """The SVG elements that draw ``series``, one f-string per marker.

    Each series has ``points`` and a ``marker``; ``sx`` and ``sy`` map data
    to pixels, and numpy's ``rint`` puts each point on a whole pixel. A
    "line" series is a polyline without the vertices that repeat the one
    before, then small dots; every series gets one marker per distinct
    pixel, in order of first occurrence, in one ``<g>`` group. Numbers are
    report floats.
    """

    def fmt(value) -> str:
        return _reference_cell(float(value))

    elements = []
    for i, s in enumerate(series):
        color = palette[i % len(palette)]
        pixels = np.rint(np.column_stack((sx(s.points[:, 0]), sy(s.points[:, 1])))).tolist()
        if s.marker == "line":
            vertices = [p for j, p in enumerate(pixels) if j == 0 or p != pixels[j - 1]]
            if len(vertices) >= 2:
                coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in vertices)
                elements.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        markers = list(dict.fromkeys(map(tuple, pixels)))
        if not markers:
            continue
        if s.marker == "cross":
            elements.append(f'<g stroke="{color}" stroke-width="1.8" fill="none">')
            elements += [
                f'<path d="M {fmt(x - 4)} {fmt(y - 4)} L {fmt(x + 4)} {fmt(y + 4)} '
                f'M {fmt(x - 4)} {fmt(y + 4)} L {fmt(x + 4)} {fmt(y - 4)}"/>'
                for x, y in markers
            ]
        else:
            radius, opacity = ("2", "") if s.marker == "line" else ("3", ' fill-opacity="0.65"')
            elements.append(f'<g fill="{color}"{opacity}>')
            elements += [f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="{radius}"/>' for x, y in markers]
        elements.append("</g>")
    return elements


def reference_distinct(pixels):
    """The distinct rows of ``pixels``, each at its first occurrence, in order (``np.unique``)."""
    _, first = np.unique(pixels, axis=0, return_index=True)
    return pixels[np.sort(first)]


def _reference_frame(ann) -> tuple[float, float] | None:
    if ann.width is not None:
        return (ann.width, ann.height)
    if len(ann):
        return (float(ann.edges[:, 2].max()), float(ann.edges[:, 3].max()))
    return None


def _jittered(
    edges: list[float], offsets: np.ndarray, frame: tuple[float, float]
) -> list[float]:
    left, top, right, bottom = (e + o for e, o in zip(edges, offsets.tolist()))
    width, height = frame
    left, width = _valid_span(left, right, width)
    top, height = _valid_span(top, bottom, height)
    return _reference_placed(left, top, width, height)


def _valid_span(low: float, high: float, limit: float) -> tuple[float, float]:
    """Restore a jittered edge pair as (low edge, span) inside [0, limit].

    Edges beyond twice the larger of ``limit`` and MAX_COORDINATE are first
    clipped to that bound. A pair narrower than MIN_SIDE, inverted or not,
    is widened to 1px around its centre. Below 2**52 a float resolves the
    half-pixel steps, so the restore works for any offset in a frame that
    synth can make, and an edge inside the bound is used as it is.
    """
    bound = 2 * max(limit, MAX_COORDINATE)
    if not (-bound <= low <= bound and -bound <= high <= bound):
        low, high = (min(max(edge, -bound), bound) for edge in (low, high))
    if high - low < MIN_SIDE:
        center = (low + high) / 2.0
        low, high = center - 0.5, center + 0.5
    span = min(high - low, limit)
    return min(max(low, 0.0), limit - span), span


def _reference_placed(left: float, top: float, width: float, height: float) -> list[float]:
    """The box of that corner and size; a side that rounding left below MIN_SIDE is mended.

    Its low edge moves down to the smaller of high - size and the float below high.
    """
    right, bottom = left + width, top + height
    if right - left < MIN_SIDE:
        left = min(right - width, math.nextafter(right, -math.inf))
    if bottom - top < MIN_SIDE:
        top = min(bottom - height, math.nextafter(bottom, -math.inf))
    return [left, top, right, bottom]


def reference_simulate_detector(gt, noise) -> dict[str, tuple]:
    """The detector simulator one box at a time: image id -> (names, edges, confidences).

    Per image, from the substream seeded by (seed, image index): the
    survival draws, then per box a ``normal(0, jitter_sd, 4)`` offset and a
    ``uniform`` confidence, then the Poisson false positives. A box whose
    offsets are all zero keeps its row as it is. A moved or placed box whose
    side rounding left below MIN_SIDE is mended by ``_reference_placed``.
    """
    corpus_names = [name for ann in gt for name in ann.class_names]
    corpus_edges = np.concatenate([np.empty((0, 4)), *(ann.edges for ann in gt)])
    corpus_widths = (corpus_edges[:, 2] - corpus_edges[:, 0]).tolist()
    corpus_heights = (corpus_edges[:, 3] - corpus_edges[:, 1]).tolist()
    tp_low, tp_high = noise.tp_confidence
    fp_low, fp_high = noise.fp_confidence
    predictions = {}
    for index, ann in enumerate(gt):
        rng = np.random.default_rng([noise.seed, index])
        frame = _reference_frame(ann)
        names, rows, confidences = [], [], []
        survival = rng.random(len(ann))
        for name, row, draw in zip(ann.class_names, ann.edges.tolist(), survival):
            offsets = rng.normal(0.0, noise.jitter_sd, 4)
            confidence = float(rng.uniform(tp_low, tp_high))
            if draw < noise.miss_rate:
                continue
            if np.any(offsets != 0.0):
                row = _jittered(row, offsets, frame)
            names.append(name)
            rows.append(row)
            confidences.append(confidence)
        spurious = int(rng.poisson(noise.false_positive_rate))
        for _ in range(spurious):
            if not corpus_names or frame is None:
                break
            source = int(rng.integers(len(corpus_names)))
            width = min(corpus_widths[source], frame[0])
            height = min(corpus_heights[source], frame[1])
            left = float(rng.uniform(0.0, frame[0] - width))
            top = float(rng.uniform(0.0, frame[1] - height))
            names.append(corpus_names[source])
            rows.append(_reference_placed(left, top, width, height))
            confidences.append(float(rng.uniform(fp_low, fp_high)))
        predictions[ann.image_id] = (
            tuple(names),
            np.array(rows, dtype=np.float64).reshape(-1, 4),
            np.array(confidences, dtype=np.float64),
        )
    return predictions
