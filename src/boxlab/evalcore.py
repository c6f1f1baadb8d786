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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .annotations import Dataset, ImageAnnotations, ImageDetections

R2_MODES = ("pearson", "identity")


class EvalError(ValueError):
    """Raised for invalid evaluation inputs."""


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome for one detection: TP with its matched box, or FP.

    ``det_index`` is the detection's position in the input sequence (file
    order). ``iou_value`` is the IoU with the matched box for a TP; for an
    FP it is the best IoU available among still-unmatched ground truth at
    decision time (0.0 when none was left).
    """

    det_index: int
    confidence: float
    is_tp: bool
    matched_gt_index: int | None
    iou_value: float


@dataclass(frozen=True)
class MatchResult:
    """Per-image matching outcome; verdicts are in descending-confidence order."""

    image_id: str
    verdicts: tuple[DetectionVerdict, ...]
    gt_count: int

    def __post_init__(self):
        object.__setattr__(self, "verdicts", tuple(self.verdicts))
        matched = [v.matched_gt_index for v in self.verdicts if v.is_tp]
        if len(set(matched)) != len(matched):
            raise EvalError("a ground-truth box was matched more than once")
        if len(matched) > self.gt_count:
            raise EvalError("more true positives than ground-truth boxes")

    @property
    def tp_count(self) -> int:
        return sum(1 for v in self.verdicts if v.is_tp)

    @property
    def fp_count(self) -> int:
        return len(self.verdicts) - self.tp_count

    @property
    def fn_count(self) -> int:
        return self.gt_count - self.tp_count


@dataclass(frozen=True)
class PRCurve:
    """Precision-recall points in rank order, plus the area under the envelope."""

    points: tuple[tuple[float, float], ...]
    confidences: tuple[float, ...]
    ap: float

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "confidences", tuple(self.confidences))
        if len(self.points) != len(self.confidences):
            raise EvalError("one confidence per PR point required")
        recalls = [r for r, _ in self.points]
        if any(lo > hi for lo, hi in zip(recalls, recalls[1:])):
            raise EvalError("recall must be non-decreasing along ranks")


@dataclass(frozen=True)
class EvalReport:
    """Full evaluation summary: per-class AP, mAP, count pairs, and R².

    ``r_squared`` is None when the count regression is undefined for the
    corpus (fewer than two images, or constant true counts).
    ``matches_per_class`` holds, per class, one MatchResult per ground-truth
    image in corpus order: that image's verdicts for detections of the class
    and its count of boxes of the class. Verdict indices refer to the image's
    full box and detection sequences.
    """

    ap_per_class: dict[str, float]
    pr_per_class: dict[str, PRCurve]
    map_score: float
    count_pairs: tuple[tuple[str, int, int], ...]
    r_squared: float | None
    iou_threshold: float
    confidence_threshold: float | None
    matches_per_class: dict[str, tuple[MatchResult, ...]] = field(default_factory=dict)


def iou(a, b) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint. One cell of ``iou_matrix``."""
    edges = [[box.left, box.top, box.right, box.bottom] for box in (a, b)]
    rows = np.array(edges, dtype=float)
    return float(iou_matrix(rows[:1], rows[1:])[0, 0])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (n, 4) and (m, 4) arrays of (left, top, right, bottom)."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def match_detections(
    gt: ImageAnnotations, pred: ImageDetections, iou_threshold: float = 0.70
) -> MatchResult:
    """Greedily match detections to ground truth at an IoU threshold.

    Detections are processed in descending confidence (ties keep file
    order); each claims the unmatched ground-truth box of its own class with
    the highest IoU when that IoU reaches the threshold, otherwise it is an
    FP. IoU ties between ground-truth boxes resolve to the lower index. A
    box of another class is never available, so an FP's ``iou_value`` is
    its best IoU with an unmatched box of its class (0.0 when none is left).

    Only pairs of the same class with IoU > 0 are candidates, listed per
    detection in ground-truth order; the greedy loop walks those lists.
    This is exact: the threshold is above 0, so a pair with IoU 0 can
    never match.
    """
    if gt.image_id != pred.image_id:
        raise EvalError(f"image id mismatch: {gt.image_id!r} vs {pred.image_id!r}")
    if not 0.0 < iou_threshold <= 1.0:
        raise EvalError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    codes: dict[str, int] = {}
    gt_codes = np.array([codes.setdefault(name, len(codes)) for name in gt.class_names], int)
    pred_codes = np.array([codes.get(name, -1) for name in pred.class_names], int)
    matrix = iou_matrix(pred.edges, gt.edges)
    # Row-major: detection i's candidates are [bounds[i], bounds[i + 1]), by ascending box index.
    rows, cols = np.nonzero((matrix > 0.0) & (pred_codes[:, None] == gt_codes))
    candidates = cols.tolist()
    values = matrix[rows, cols].tolist()
    bounds = np.searchsorted(rows, np.arange(len(pred) + 1)).tolist()
    confidences = pred.confidences.tolist()
    matched = [False] * len(gt)
    verdicts = []
    for i in np.argsort(-pred.confidences, kind="stable").tolist():
        best, best_j = 0.0, None
        for k in range(bounds[i], bounds[i + 1]):
            j = candidates[k]
            if values[k] > best and not matched[j]:
                best, best_j = values[k], j
        if best >= iou_threshold:
            matched[best_j] = True
            verdicts.append(DetectionVerdict(i, confidences[i], True, best_j, best))
        else:
            verdicts.append(DetectionVerdict(i, confidences[i], False, None, best))
    return MatchResult(image_id=gt.image_id, verdicts=tuple(verdicts), gt_count=len(gt))


def average_precision(matches: Iterable[MatchResult], total_gt: int) -> PRCurve:
    """PR curve over the global detection ranking, and its all-point AP.

    The ranking merges all images by (confidence descending, image id,
    detection index), so results are independent of input order; verdicts
    equal on that whole key keep their input order. AP is the area under
    the monotone precision envelope, integrated at every rank that adds
    recall (the PASCAL VOC definition since 2010).

    Each point is an integer true division, which numpy and Python both
    round correctly, and a rank that adds no recall adds an exact 0.0 to
    a ``math.fsum``, so the curve and AP equal a rank-by-rank loop's.
    """
    if total_gt < 1:
        raise EvalError(f"total_gt must be >= 1, got {total_gt}")
    ranked = sorted(
        ((v, m.image_id) for m in matches for v in m.verdicts),
        key=lambda item: (-item[0].confidence, item[1], item[0].det_index),
    )
    true_positives = np.cumsum([v.is_tp for v, _ in ranked], dtype=np.int64)
    recall = true_positives / total_gt
    precision = true_positives / np.arange(1, len(ranked) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    ap = math.fsum((np.diff(recall, prepend=0.0) * envelope).tolist())
    points = tuple(zip(recall.tolist(), precision.tolist()))
    return PRCurve(points, tuple(v.confidence for v, _ in ranked), ap)


def _checked_predictions(gt: Dataset, predictions) -> dict[str, ImageDetections]:
    """Predictions keyed by image id; a duplicate or an image unknown to ``gt`` is an error."""
    if isinstance(predictions, Mapping):
        items = predictions.values()
    else:
        items = predictions
    by_id: dict[str, ImageDetections] = {}
    for pred in items:
        if pred.image_id in by_id:
            raise EvalError(f"duplicate predictions for image {pred.image_id!r}")
        by_id[pred.image_id] = pred
    unknown = sorted(set(by_id) - set(gt.images))
    if unknown:
        raise EvalError(f"predictions reference unknown image {unknown[0]!r}")
    return by_id


def mean_average_precision(
    gt: Dataset, predictions, iou_threshold: float = 0.70
) -> EvalReport:
    """Per-class AP and their mean.

    Classes are those present in the ground truth; detections of any other
    class are ignored. Each image is matched once with ``match_detections``,
    whose verdicts are then split by the detection's class. An image with no
    prediction file contributes only false negatives. The returned report
    carries the AP fields and the per-class match results; count pairs and
    R² are left empty (see ``evaluate`` for the full report).
    """
    predictions = _checked_predictions(gt, predictions)
    classes = sorted(set().union(*(ann.class_names for ann in gt)))
    if not classes:
        raise EvalError("ground truth contains no boxes")
    matches: dict[str, list[MatchResult]] = {name: [] for name in classes}
    for ann in gt:
        pred = predictions.get(ann.image_id, ImageDetections(ann.image_id))
        verdicts: dict[str, list[DetectionVerdict]] = {name: [] for name in classes}
        for verdict in match_detections(ann, pred, iou_threshold).verdicts:
            name = pred.class_names[verdict.det_index]
            if name in verdicts:
                verdicts[name].append(verdict)
        gt_counts = Counter(ann.class_names)
        for name, results in matches.items():
            results.append(MatchResult(ann.image_id, verdicts[name], gt_counts[name]))
    pr_per_class = {
        name: average_precision(results, sum(m.gt_count for m in results))
        for name, results in matches.items()
    }
    ap_per_class = {name: curve.ap for name, curve in pr_per_class.items()}
    return EvalReport(
        ap_per_class=ap_per_class,
        pr_per_class=pr_per_class,
        map_score=math.fsum(ap_per_class.values()) / len(ap_per_class),
        count_pairs=(),
        r_squared=None,
        iou_threshold=float(iou_threshold),
        confidence_threshold=None,
        matches_per_class={name: tuple(results) for name, results in matches.items()},
    )


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
    gt: Dataset,
    predictions,
    confidence_threshold: float = 0.5,
    mode: str = "pearson",
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
    gt: Dataset,
    predictions,
    iou_threshold: float = 0.70,
    confidence_threshold: float = 0.5,
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
    report = mean_average_precision(gt, predictions, iou_threshold)
    try:
        r_squared = _r_squared(pairs, r2_mode)
    except EvalError:
        r_squared = None
    return replace(
        report,
        count_pairs=pairs,
        r_squared=r_squared,
        confidence_threshold=float(confidence_threshold),
    )
