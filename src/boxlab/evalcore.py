"""Detection evaluation: IoU, greedy matching, PR curves, AP/mAP, count R².

The matcher is the usual greedy one: detections in descending confidence
order each claim the unmatched ground-truth box of their class they overlap
best, provided that IoU reaches the threshold. AP is the area under the monotone precision
envelope over all ranks (all-point interpolation only). Count agreement is the
squared Pearson correlation between per-image true and predicted counts;
an identity-line variant (1 - SSres/SStot about y = x) is available since
an R² printed on a scatter plot can mean either.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .annotations import DataError, Dataset, ImageAnnotations, ImageDetections, frozen, same_fields

R2_MODES = ("pearson", "identity")


class EvalError(DataError):
    """Raised for invalid evaluation inputs."""


# Column name -> dtype of a Verdicts table, in constructor order.
_COLUMNS = {"image": np.int64, "det_index": np.int64, "confidence": np.float64,
            "matched_gt": np.int64, "iou": np.float64}


@dataclass(frozen=True, eq=False)
class Verdicts:
    """Match verdicts as equal-length, read-only numpy columns, one row per detection.

    Rows run image by image in corpus order, and within an image in
    descending confidence (ties keep file order). ``image`` is a corpus
    position (a ``Dataset`` iterates in sorted-id order); ``det_index`` is
    the detection's position in its file. A TP holds the matched box's
    position in its image in ``matched_gt`` and their IoU in ``iou``; an FP
    holds -1 and the best IoU among still-unmatched boxes of its class at
    decision time (0.0 when none was left). ``is_tp`` is not passed in: it
    is ``matched_gt >= 0``. A slice or mask selects rows.
    """

    image: np.ndarray = ()
    det_index: np.ndarray = ()
    confidence: np.ndarray = ()
    is_tp: np.ndarray = field(init=False)
    matched_gt: np.ndarray = ()
    iou: np.ndarray = ()

    def __post_init__(self):
        columns = {name: frozen(getattr(self, name), dtype) for name, dtype in _COLUMNS.items()}
        if len({column.shape for column in columns.values()}) != 1 or columns["image"].ndim != 1:
            raise EvalError("verdict columns must be one-dimensional and of equal length")
        columns["is_tp"] = frozen(columns["matched_gt"] >= 0, np.bool_)
        self.__dict__.update(columns)

    def __len__(self) -> int:
        return len(self.image)

    def __getitem__(self, rows) -> "Verdicts":
        return Verdicts(**{name: getattr(self, name)[rows] for name in _COLUMNS})

    __eq__ = same_fields


# Column names of a PRCurve, in constructor order; each is float64.
_CURVE_COLUMNS = ("recall", "precision", "confidences")


@dataclass(frozen=True, eq=False)
class PRCurve:
    """A PR curve as equal-length, read-only float64 columns in rank order, plus its AP.

    Row i holds the recall and precision after the i + 1 best-ranked
    detections and the confidence of the last of them. Recall must not
    decrease along the ranks. ``ap`` is computed, not passed in: the
    ``math.fsum`` of each recall step times the best precision at or after
    it. ``points`` is the same curve as (recall, precision) pairs, built
    anew on each access for perfbench's eval output check. Two curves are
    equal when their columns are; a curve is not hashable.
    """

    recall: np.ndarray
    precision: np.ndarray
    confidences: np.ndarray
    ap: float = field(init=False)

    def __post_init__(self):
        columns = {name: frozen(getattr(self, name)) for name in _CURVE_COLUMNS}
        recall, precision, confidences = columns.values()
        if recall.ndim != 1 or recall.shape != precision.shape:
            raise EvalError("recall and precision must be one-dimensional and of equal length")
        if confidences.shape != recall.shape:
            raise EvalError("one confidence per PR point required")
        if np.any(recall[1:] < recall[:-1]):
            raise EvalError("recall must be non-decreasing along ranks")
        steps = np.diff(recall, prepend=0.0)
        steps *= np.maximum.accumulate(precision[::-1])[::-1]
        self.__dict__.update(columns, ap=math.fsum(steps))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.recall.tolist(), self.precision.tolist()))

    __eq__ = same_fields


@dataclass(frozen=True)
class EvalReport:
    """Full evaluation summary: per-class AP, mAP, count pairs, and R².

    ``ap_per_class`` (each curve's ``ap``) and their ``math.fsum`` mean
    ``map_score`` are computed, not passed in; no class is an EvalError.
    ``r_squared`` is None when the count regression is undefined for the
    corpus (fewer than two images, or constant true counts).
    ``verdicts`` holds the rows of every detection whose class has ground
    truth in the corpus; their indices refer to the image's full box and
    detection sequences.
    """

    pr_per_class: dict[str, PRCurve]
    iou_threshold: float
    ap_per_class: dict[str, float] = field(init=False)
    map_score: float = field(init=False)
    count_pairs: tuple[tuple[str, int, int], ...] = ()
    r_squared: float | None = None
    confidence_threshold: float | None = None
    verdicts: Verdicts = field(default_factory=Verdicts)

    def __post_init__(self):
        if not self.pr_per_class:
            raise EvalError("an evaluation report needs at least one class")
        aps = {name: curve.ap for name, curve in self.pr_per_class.items()}
        self.__dict__.update(ap_per_class=aps, map_score=math.fsum(aps.values()) / len(aps))


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (n, 4) and (m, 4) arrays of (left, top, right, bottom)."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def _checked_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise EvalError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def _greedy_matches(
    gt: ImageAnnotations, pred: ImageDetections, iou_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One image's greedy matching as (order, partners, ious) arrays in rank order.

    ``order`` holds the detection indices by descending confidence (ties
    keep file order); rank r claimed box ``partners[r]`` (-1 for an FP)
    and decided on IoU ``ious[r]``.

    Only pairs of the same class with IoU > 0 are candidates, listed per
    detection in ground-truth order; the greedy loop walks those lists.
    This is exact: the threshold is above 0, so a pair with IoU 0 can
    never match.
    """
    codes: dict[str, int] = {}
    gt_codes = np.array([codes.setdefault(name, len(codes)) for name in gt.class_names], int)
    pred_codes = np.array([codes.get(name, -1) for name in pred.class_names], int)
    matrix = iou_matrix(pred.edges, gt.edges)
    # Row-major: detection i's candidates are [bounds[i], bounds[i + 1]), by ascending box index.
    rows, cols = np.nonzero((matrix > 0.0) & (pred_codes[:, None] == gt_codes))
    candidates = cols.tolist()
    values = matrix[rows, cols].tolist()
    bounds = np.searchsorted(rows, np.arange(len(pred) + 1)).tolist()
    order = np.argsort(-pred.confidences, kind="stable")
    matched = [False] * len(gt)
    partners, ious = np.full(len(pred), -1), np.zeros(len(pred))
    for rank, i in enumerate(order.tolist()):
        best, best_j = 0.0, None
        for k in range(bounds[i], bounds[i + 1]):
            j = candidates[k]
            if values[k] > best and not matched[j]:
                best, best_j = values[k], j
        ious[rank] = best
        if best >= iou_threshold:
            matched[best_j] = True
            partners[rank] = best_j
    return order, partners, ious


def match_detections(
    gt: ImageAnnotations, pred: ImageDetections, iou_threshold: float = 0.70
) -> Verdicts:
    """Greedily match one image's detections to its ground truth at an IoU threshold.

    Detections are processed in descending confidence (ties keep file
    order); each claims the unmatched ground-truth box of its own class with
    the highest IoU when that IoU reaches the threshold, otherwise it is an
    FP. IoU ties between ground-truth boxes resolve to the lower index. A
    box of another class is never available, so an FP's ``iou`` is its
    best IoU with an unmatched box of its class (0.0 when none is left).
    The table's ``image`` column is 0.

    This is the one-image entry point of the matcher that
    ``mean_average_precision`` runs on each image of a corpus.
    """
    if gt.image_id != pred.image_id:
        raise EvalError(f"image id mismatch: {gt.image_id!r} vs {pred.image_id!r}")
    _checked_iou_threshold(iou_threshold)
    order, partners, ious = _greedy_matches(gt, pred, iou_threshold)
    image = np.zeros(len(pred), np.int64)
    return Verdicts(image, order, pred.confidences[order], partners, ious)


def _ranked_curve(is_tp: np.ndarray, confidences: np.ndarray, total_gt: int) -> PRCurve:
    """PR curve of detections already in rank order; the PRCurve computes its AP.

    Each value is an integer true division, which numpy and Python both
    round correctly, and a rank that adds no recall adds an exact 0.0 to
    the AP's ``math.fsum``, which reads the array without a list of every
    rank, so the curve and AP equal a rank-by-rank loop's.
    """
    true_positives = np.cumsum(is_tp, dtype=np.int64)
    if len(true_positives) and true_positives[-1] > total_gt:
        raise EvalError("more true positives than ground-truth boxes")
    recall = true_positives / total_gt
    precision = true_positives / np.arange(1, len(true_positives) + 1)
    del true_positives
    return PRCurve(recall, precision, confidences)


def average_precision(verdicts: Verdicts, total_gt: int) -> PRCurve:
    """PR curve over the global detection ranking, and its all-point AP.

    The ranking merges all images by (confidence descending, image,
    detection index), so results are independent of row order; rows equal
    on that whole key keep their order. A row is a TP exactly when it holds
    a matched box (``matched_gt >= 0``). AP is the curve's own ``ap``: the
    area under the monotone precision envelope, integrated at every rank
    that adds recall (the PASCAL VOC definition since 2010). A box matched
    twice within an image, or more TPs than ``total_gt``, is an EvalError.

    The curve's recall and precision columns go into the PRCurve as
    computed, with the confidences in rank order; no per-rank Python
    object is kept.
    """
    if total_gt < 1:
        raise EvalError(f"total_gt must be >= 1, got {total_gt}")
    tp = verdicts.is_tp
    image, box = verdicts.image[tp], verdicts.matched_gt[tp]
    by_box = np.lexsort((box, image))
    if np.any((np.diff(image[by_box]) == 0) & (np.diff(box[by_box]) == 0)):
        raise EvalError("a ground-truth box was matched more than once")
    order = np.lexsort((verdicts.det_index, verdicts.image, -verdicts.confidence))
    return _ranked_curve(tp[order], verdicts.confidence[order], total_gt)


def _checked_predictions(gt: Dataset, predictions) -> dict[str, ImageDetections]:
    """Predictions keyed by image id; a mis-keyed, duplicate or unknown image is an error."""
    by_id: dict[str, ImageDetections] = {}
    if isinstance(predictions, Mapping):
        pairs = predictions.items()
    else:
        pairs = ((pred.image_id, pred) for pred in predictions)
    for key, pred in pairs:
        if key != pred.image_id:
            raise EvalError(f"predictions for image {pred.image_id!r} are keyed as {key!r}")
        if pred.image_id in by_id:
            raise EvalError(f"duplicate predictions for image {pred.image_id!r}")
        by_id[pred.image_id] = pred
    unknown = sorted(set(by_id) - set(gt.images))
    if unknown:
        raise EvalError(f"predictions reference unknown image {unknown[0]!r}")
    return by_id


def _corpus_verdicts(
    gt: Dataset, predictions: Mapping[str, ImageDetections], codes: Mapping[str, int],
    iou_threshold: float,
) -> tuple[Verdicts, np.ndarray]:
    """Every image's verdict rows whose class is in ``codes``, and each row's class code.

    The rows are filled one image at a time into columns sized from the
    detection counts; the Verdicts table is their one read-only copy.
    """
    size = sum(map(len, predictions.values()))
    columns = {name: np.empty(size, dtype) for name, dtype in _COLUMNS.items()}
    class_codes = np.empty(size, np.int64)
    stop = 0
    for position, ann in enumerate(gt):
        pred = predictions.get(ann.image_id)
        if pred is None:
            continue
        order, partners, ious = _greedy_matches(ann, pred, iou_threshold)
        row_codes = np.array([codes.get(name, -1) for name in pred.class_names], np.int64)[order]
        kept = row_codes >= 0
        order, partners, ious = order[kept], partners[kept], ious[kept]
        rows = slice(stop, stop + len(order))
        stop = rows.stop
        values = (position, order, pred.confidences[order], partners, ious)
        for column, value in zip(columns.values(), values):
            column[rows] = value
        class_codes[rows] = row_codes[kept]
    verdicts = Verdicts(**{name: column[:stop] for name, column in columns.items()})
    return verdicts, class_codes[:stop]


def _mean_average_precision(
    gt: Dataset, predictions: Mapping[str, ImageDetections], iou_threshold: float
) -> EvalReport:
    """``mean_average_precision`` on predictions that ``_checked_predictions`` returned.

    Every row is ranked once, class first, so each class's ranks are one
    contiguous segment. The table's rows run by image and, within one, by
    rank with confidence ties in file order, so rows that tie on (class,
    confidence) already stand in (image, det_index) order: a stable sort on
    (class, -confidence) gives ``average_precision``'s full key.
    """
    gt_totals = Counter(name for ann in gt for name in ann.class_names)
    if not gt_totals:
        raise EvalError("ground truth contains no boxes")
    _checked_iou_threshold(iou_threshold)
    codes = {name: code for code, name in enumerate(sorted(gt_totals))}
    verdicts, class_codes = _corpus_verdicts(gt, predictions, codes, iou_threshold)
    order = np.lexsort((-verdicts.confidence, class_codes))
    segments = np.split(order, np.cumsum(np.bincount(class_codes, minlength=len(codes)))[:-1])
    pr_per_class = {
        name: _ranked_curve(verdicts.is_tp[ranked], verdicts.confidence[ranked], gt_totals[name])
        for name, ranked in zip(codes, segments)
    }
    return EvalReport(pr_per_class, float(iou_threshold), verdicts=verdicts)


def mean_average_precision(
    gt: Dataset, predictions, iou_threshold: float = 0.70
) -> EvalReport:
    """Per-class AP and their mean.

    Classes are those present in the ground truth; detections of any other
    class are ignored. Each image is matched once by the matcher behind
    ``match_detections``, and its rows are written straight into one
    corpus-wide verdict table, with ``image`` set to the image's corpus
    position. The rows are ranked once, class first, and each class's PR
    curve is taken from its contiguous segment of that ranking. An image
    with no prediction file contributes only false negatives. The returned
    report carries the AP fields and the verdicts; count pairs and R² are
    left empty (see ``evaluate`` for the full report).
    """
    return _mean_average_precision(gt, _checked_predictions(gt, predictions), iou_threshold)


def _count_pairs(
    gt: Dataset, predictions: Mapping[str, ImageDetections], confidence_threshold: float
) -> tuple[tuple[str, int, int], ...]:
    if not 0.0 <= confidence_threshold <= 1.0:
        raise EvalError(f"confidence_threshold must be in [0, 1], got {confidence_threshold}")
    pairs = []
    for ann in gt:
        pred = predictions.get(ann.image_id)
        predicted = 0
        if pred is not None:
            predicted = int(np.count_nonzero(pred.confidences >= confidence_threshold))
        pairs.append((ann.image_id, len(ann), predicted))
    return tuple(pairs)


def _r_squared(pairs: Sequence[tuple[str, int, int]], mode: str) -> float:
    if mode not in R2_MODES:
        raise EvalError(f"unknown R² mode {mode!r}; expected one of {R2_MODES}")
    if len(pairs) < 2:
        raise EvalError(f"count regression needs at least 2 images, got {len(pairs)}")
    true = np.array([t for _, t, _ in pairs], dtype=float)
    predicted = np.array([p for _, _, p in pairs], dtype=float)
    dt = true - true.mean()
    ss_true = float(np.sum(dt * dt))
    if ss_true == 0.0:
        raise EvalError("true counts are identical across images; R² is undefined")
    if mode == "identity":
        residuals = predicted - true
        value = 1.0 - float(np.sum(residuals * residuals)) / ss_true
        return max(0.0, value)
    dp = predicted - predicted.mean()
    ss_pred = float(np.sum(dp * dp))
    if ss_pred == 0.0:
        return 0.0
    covariance = float(np.sum(dt * dp))
    return (covariance * covariance) / (ss_true * ss_pred)


def count_regression(
    gt: Dataset, predictions, confidence_threshold: float = 0.5, mode: str = "pearson"
) -> tuple[tuple[tuple[str, int, int], ...], float]:
    """Per-image (true, predicted) counts and their R².

    The predicted count is the number of detections at or above the
    confidence threshold, whatever their class; an image without
    predictions counts zero. Detections of a class that has no ground
    truth anywhere in the corpus are counted here, although
    ``mean_average_precision`` drops them. A threshold outside [0, 1], or
    NaN, is an EvalError.
    """
    predictions = _checked_predictions(gt, predictions)
    pairs = _count_pairs(gt, predictions, confidence_threshold)
    return pairs, _r_squared(pairs, mode)


def evaluate(
    gt: Dataset, predictions, iou_threshold: float = 0.70, confidence_threshold: float = 0.5,
    r2_mode: str = "pearson",
) -> EvalReport:
    """Full report: mAP plus count regression in one pass.

    The two halves see different detections: mAP covers only the classes
    present in the ground truth, while the predicted count behind R² takes
    every detection at or above ``confidence_threshold``, including those
    of classes with no ground truth anywhere (see ``count_regression``).

    On corpora where the count regression is undefined (a single image, or
    constant true counts) ``r_squared`` is None rather than an error, so the
    AP side of the report stays usable.
    """
    if r2_mode not in R2_MODES:
        raise EvalError(f"unknown R² mode {r2_mode!r}; expected one of {R2_MODES}")
    predictions = _checked_predictions(gt, predictions)
    pairs = _count_pairs(gt, predictions, confidence_threshold)
    report = _mean_average_precision(gt, predictions, iou_threshold)
    try:
        r_squared = _r_squared(pairs, r2_mode)
    except EvalError:
        r_squared = None
    return replace(report, count_pairs=pairs, r_squared=r_squared,
                   confidence_threshold=float(confidence_threshold))
