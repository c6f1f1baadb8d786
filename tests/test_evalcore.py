import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from boxlab.annotations import Dataset, ImageAnnotations, ImageDetections
from boxlab.evalcore import (
    EvalError,
    PRCurve,
    Verdicts,
    _corpus_verdicts,
    _ranked_curve,
    average_precision,
    count_regression,
    evaluate,
    iou_matrix,
    match_detections,
    mean_average_precision,
)
from boxlab.synthgen import DetectorNoise, SynthConfig, generate_dataset, simulate_detector
from conftest import iou
from oracles import (
    cutoff_scan_ap,
    four_key_class_ranking,
    pearson_r_squared,
    raster_iou,
    reference_average_precision,
    reference_class_matches,
    reference_mean_average_precision,
    reference_ranked_curve,
)


def gt_image(image_id, boxes, class_name="head"):
    return ImageAnnotations(image_id, [class_name] * len(boxes), boxes)


def det_image(image_id, dets, class_name="head"):
    return ImageDetections(
        image_id, [class_name] * len(dets), [b for _, b in dets], [conf for conf, _ in dets]
    )


def verdict_rows(table):
    """(det_index, confidence, is_tp, gt index or None, iou) per row, as the oracles give them."""
    columns = (table.det_index, table.confidence, table.is_tp, table.matched_gt, table.iou)
    return [(d, c, t, None if g < 0 else g, v) for d, c, t, g, v in zip(*map(list, columns))]


def verdicts_table(rows):
    """A table from (image, det_index, confidence, matched_gt) rows; a TP (matched_gt >= 0)
    gets IoU 1.0."""
    columns = list(zip(*rows)) or [()] * 4
    return Verdicts(*columns, [1.0 if matched >= 0 else 0.0 for matched in columns[3]])


def curve_columns(curve):
    """A PR curve's columns as lists, then its AP, for exact comparison."""
    return curve.recall.tolist(), curve.precision.tolist(), curve.confidences.tolist(), curve.ap


def report_curves(report):
    """``curve_columns`` of each class's PR curve in a report."""
    return {name: curve_columns(curve) for name, curve in report.pr_per_class.items()}


def reference_columns(points, confidences, ap):
    """``reference_average_precision``'s output in the form of ``curve_columns``."""
    return [r for r, _ in points], [p for _, p in points], list(confidences), ap


def oracle_matches(table):
    """The table as ``reference_average_precision`` input: one single-row image per row."""
    return [
        SimpleNamespace(image_id=i, verdicts=[SimpleNamespace(det_index=d, confidence=c, is_tp=t)])
        for i, d, c, t in zip(*map(list, (table.image, table.det_index, table.confidence,
                                           table.is_tp)))
    ]


def edge_row(spec):
    """A (left, top, width, height) spec as a (left, top, right, bottom) row."""
    left, top, width, height = spec
    return (left, top, left + width, top + height)


class TestIou:
    def test_identical_boxes_give_exactly_one(self):
        box = (3, 7, 45, 91)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 10, 10), (50, 50, 60, 60)) == 0.0

    def test_edge_touching_boxes_do_not_overlap(self):
        assert iou((0, 0, 10, 10), (10, 0, 20, 10)) == 0.0

    def test_half_shifted_squares(self):
        value = iou((0, 0, 10, 10), (5, 0, 15, 10))
        assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_contained_box(self):
        assert iou((0, 0, 10, 10), (2, 2, 4, 4)) == 0.04

    @given(
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(1, 30), st.integers(1, 30)),
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(1, 30), st.integers(1, 30)),
    )
    def test_matches_pixel_counting(self, spec_a, spec_b):
        a, b = edge_row(spec_a), edge_row(spec_b)
        assert iou(a, b) == pytest.approx(raster_iou(a, b, frame=128), abs=1e-9)

    @given(
        st.tuples(st.floats(0, 80, allow_nan=False), st.floats(0, 80, allow_nan=False),
                  st.floats(1, 40, allow_nan=False), st.floats(1, 40, allow_nan=False)),
        st.tuples(st.floats(0, 80, allow_nan=False), st.floats(0, 80, allow_nan=False),
                  st.floats(1, 40, allow_nan=False), st.floats(1, 40, allow_nan=False)),
        st.floats(0, 100, allow_nan=False),
        st.floats(0, 100, allow_nan=False),
    )
    def test_symmetric_and_translation_invariant(self, spec_a, spec_b, dx, dy):
        a, b = edge_row(spec_a), edge_row(spec_b)
        value = iou(a, b)
        assert value == iou(b, a)
        assert 0.0 <= value <= 1.0
        shift = np.array([dx, dy, dx, dy])
        assert iou(a + shift, b + shift) == pytest.approx(value, abs=1e-9)

    def test_matrix_agrees_with_scalar(self):
        boxes_a = [(0, 0, 10, 10), (5, 5, 25, 30)]
        boxes_b = [(2, 2, 12, 12), (100, 100, 110, 110), (0, 0, 10, 10)]
        matrix = iou_matrix(np.array(boxes_a, dtype=float), np.array(boxes_b, dtype=float))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert matrix[i, j] == pytest.approx(iou(a, b), abs=1e-12)


class TestMatchDetections:
    def test_worked_example_verdicts(self, worked_example):
        gt, preds = worked_example
        ann = gt.images["img_0"]
        result = match_detections(ann, preds["img_0"])
        assert len(ann) == 2
        assert result.image.tolist() == [0, 0, 0]
        assert result.is_tp.tolist() == [True, False, True]
        assert result.confidence.tolist() == [0.9, 0.8, 0.7]
        assert result.matched_gt.tolist() == [0, -1, 1]
        assert result.iou[1] == pytest.approx(81 / 119, abs=1e-12)
        assert 81 / 119 < 0.70
        tp = int(result.is_tp.sum())
        assert (tp, len(result) - tp, len(ann) - tp) == (2, 1, 0)

    def test_each_gt_box_matches_at_most_once(self):
        gt = gt_image("a", [(0, 0, 10, 10)])
        pred = det_image("a", [(0.9, (0, 0, 10, 10)), (0.8, (0, 0, 10, 10))])
        result = match_detections(gt, pred)
        assert result.is_tp.tolist() == [True, False]
        assert result.iou[1] == 0.0

    def test_higher_confidence_claims_the_box(self):
        # The 0.95 detection overlaps less well, but greedy order lets it
        # claim the box first; the exact-fit 0.6 detection becomes the FP.
        gt = gt_image("a", [(0, 0, 10, 10)])
        pred = det_image("a", [(0.6, (0, 0, 10, 10)), (0.95, (1, 1, 11, 11))])
        result = match_detections(gt, pred, iou_threshold=0.5)
        assert result.confidence[0] == 0.95
        assert result.is_tp[0]
        assert result.iou[0] == pytest.approx(81 / 119, abs=1e-12)
        assert not result.is_tp[1]

    def test_iou_tie_takes_the_lower_gt_index(self):
        gt = gt_image("a", [(0, 0, 10, 10), (0, 0, 10, 10)])
        pred = det_image("a", [(0.9, (0, 0, 10, 10)), (0.8, (0, 0, 10, 10))])
        result = match_detections(gt, pred)
        assert result.matched_gt.tolist() == [0, 1]

    def test_confidence_tie_keeps_file_order(self):
        gt = gt_image("a", [(0, 0, 10, 10)])
        pred = det_image("a", [(0.9, (0, 0, 10, 10)), (0.9, (0, 0, 10, 10))])
        result = match_detections(gt, pred)
        assert result.det_index.tolist() == [0, 1]
        assert result.is_tp.tolist() == [True, False]

    def test_no_detections(self):
        gt = gt_image("a", [(0, 0, 10, 10)])
        result = match_detections(gt, ImageDetections("a", ()))
        assert result == Verdicts()
        assert len(gt) - int(result.is_tp.sum()) == 1

    def test_no_ground_truth(self):
        result = match_detections(
            ImageAnnotations("a", ()), det_image("a", [(0.9, (0, 0, 10, 10))])
        )
        assert result.is_tp.tolist() == [False]
        assert result.matched_gt.tolist() == [-1]
        assert result.iou[0] == 0.0

    def test_other_class_detection_cannot_claim_a_box(self):
        gt = gt_image("a", [(0, 0, 10, 10)])
        pred = ImageDetections("a", ["leaf", "head"], [(0, 0, 10, 10)] * 2, [0.9, 0.6])
        leaf, head = verdict_rows(match_detections(gt, pred))
        assert (leaf[0], leaf[2], leaf[4]) == (0, False, 0.0)
        assert (head[0], head[2], head[3]) == (1, True, 0)

    def test_image_id_mismatch_rejected(self):
        with pytest.raises(EvalError):
            match_detections(gt_image("a", []), ImageDetections("b", ()))

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(EvalError):
            match_detections(gt_image("a", []), ImageDetections("a", ()), threshold)

    def test_raising_the_threshold_never_adds_matches(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            gt_boxes = [
                (x, y, x + w, y + h)
                for x, y, w, h in zip(
                    rng.uniform(0, 80, 6), rng.uniform(0, 80, 6),
                    rng.uniform(4, 30, 6), rng.uniform(4, 30, 6),
                )
            ]
            dets = [
                (float(c), (x, y, x + w, y + h))
                for c, x, y, w, h in zip(
                    rng.uniform(0, 1, 8), rng.uniform(0, 80, 8), rng.uniform(0, 80, 8),
                    rng.uniform(4, 30, 8), rng.uniform(4, 30, 8),
                )
            ]
            gt, pred = gt_image("a", gt_boxes), det_image("a", dets)
            counts = [
                int(match_detections(gt, pred, t).is_tp.sum()) for t in (0.3, 0.5, 0.7, 0.9)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_input_order_does_not_matter_with_unique_confidences(self):
        gt_boxes = [(0, 0, 10, 10), (20, 0, 30, 10), (40, 0, 50, 10)]
        dets = [
            (0.9, (1, 0, 11, 10)),
            (0.7, (20, 0, 30, 10)),
            (0.5, (41, 1, 51, 11)),
            (0.3, (0, 0, 10, 10)),
        ]
        gt = gt_image("a", gt_boxes)
        outcome_a = {
            c: (t, g) for _, c, t, g, _ in verdict_rows(match_detections(gt, det_image("a", dets)))
        }
        outcome_b = {
            c: (t, g)
            for _, c, t, g, _ in verdict_rows(match_detections(gt, det_image("a", dets[::-1])))
        }
        assert outcome_a == outcome_b


# Whole-pixel corners on a small grid: boxes often touch (IoU exactly 0),
# repeat (IoU ties) or nest; three confidences make confidence ties common.
GRID_BOXES = st.builds(
    lambda left, top, w, h: (float(left), float(top), float(left + w), float(top + h)),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(1, 4),
    st.integers(1, 4),
)


class TestMatchDetectionsAgainstReference:
    @settings(max_examples=300)
    @given(
        st.lists(st.tuples(st.sampled_from(["head", "leaf"]), GRID_BOXES), max_size=8),
        st.lists(
            st.tuples(st.sampled_from(["head", "leaf", "weed"]), st.sampled_from([0.3, 0.6, 0.9]),
                      GRID_BOXES),
            max_size=8,
        ),
        st.sampled_from([1e-9, 0.5, 1.0]),
    )
    @example([("head", (0.0, 0.0, 2.0, 2.0))], [("head", 0.5, (2.0, 0.0, 4.0, 2.0))], 1e-9)
    @example(
        [("head", (0.0, 0.0, 2.0, 2.0)), ("head", (0.0, 0.0, 2.0, 2.0))],
        [("head", 0.5, (0.0, 0.0, 2.0, 2.0)), ("head", 0.5, (0.0, 0.0, 2.0, 2.0))],
        1.0,
    )
    def test_one_image_matches_the_per_class_reference(self, gt_boxes, detections, threshold):
        gt_rows = [(name, *box) for name, box in gt_boxes]
        det_rows = [(name, confidence, *box) for name, confidence, box in detections]
        gt = ImageAnnotations("a", [r[0] for r in gt_rows], [r[1:] for r in gt_rows])
        pred = ImageDetections(
            "a", [r[0] for r in det_rows], [r[2:] for r in det_rows], [r[1] for r in det_rows]
        )
        result = match_detections(gt, pred, threshold)

        expected = {}
        reference = reference_class_matches([("a", gt_rows, det_rows)], threshold)
        for [(_, _, verdicts)] in reference.values():
            expected.update((verdict[0], verdict) for verdict in verdicts)
        # A detection whose class has no box in the image is an FP with IoU 0.
        for i, row in enumerate(det_rows):
            expected.setdefault(i, (i, row[1], False, None, 0.0))
        order = sorted(range(len(det_rows)), key=lambda i: -det_rows[i][1])
        assert result.image.tolist() == [0] * len(det_rows)
        assert verdict_rows(result) == [expected[i] for i in order]


class TestMatchResultValidation:
    """A table's TP flags follow from its matched boxes, and ``average_precision`` rejects a
    table no matching can produce."""

    def test_double_match_rejected(self):
        table = verdicts_table([(0, 0, 0.9, 0), (0, 1, 0.8, 0)])
        with pytest.raises(EvalError, match="a ground-truth box was matched more than once"):
            average_precision(table, total_gt=2)

    def test_more_tps_than_gt_rejected(self):
        table = verdicts_table([(0, 0, 0.9, 0), (1, 0, 0.8, 0)])
        with pytest.raises(EvalError, match="more true positives than ground-truth boxes"):
            average_precision(table, total_gt=1)

    def test_a_row_without_a_matched_box_is_never_a_tp(self):
        table = Verdicts(image=[0], det_index=[0], confidence=[0.9], matched_gt=[-1], iou=[0.0])
        assert table.is_tp.tolist() == [False]
        assert average_precision(table, 1).ap == 0.0

    @given(st.lists(st.integers(-1, 3), max_size=8))
    def test_is_tp_is_whether_the_row_holds_a_matched_box(self, matched):
        n = len(matched)
        table = Verdicts([0] * n, range(n), [0.5] * n, matched, [0.0] * n)
        assert table.is_tp.tolist() == [m >= 0 for m in matched]
        assert not table.is_tp.flags.writeable
        assert table[::-1].is_tp.tolist() == [m >= 0 for m in matched[::-1]]
        assert not replace(table, matched_gt=[-1] * n).is_tp.any()


def random_match_results(seed):
    """A small random multi-image verdict table with unique confidences, and its total GT."""
    rng = np.random.default_rng([321, seed])
    n_images = int(rng.integers(1, 5))
    confidences = rng.permutation(rng.uniform(0.01, 0.99, 40))
    next_conf = iter(confidences.tolist())
    rows = []
    total_gt = 0
    for i in range(n_images):
        gt_count = int(rng.integers(0, 7))
        total_gt += gt_count
        n_det = int(rng.integers(0, 9))
        tp_budget = list(range(gt_count))
        confs = sorted((next(next_conf) for _ in range(n_det)), reverse=True)
        for d, conf in enumerate(confs):
            make_tp = tp_budget and rng.random() < 0.6
            rows.append((i, d, conf, tp_budget.pop(0) if make_tp else -1))
    return verdicts_table(rows), total_gt


class TestAveragePrecision:
    def test_worked_example_curve_and_ap(self, worked_example):
        gt, preds = worked_example
        result = match_detections(gt.images["img_0"], preds["img_0"])
        curve = average_precision(result, total_gt=2)
        assert curve.recall.tolist() == [0.5, 0.5, 1.0]
        assert curve.precision.tolist() == [1.0, 0.5, 2 / 3]
        assert curve.confidences.tolist() == [0.9, 0.8, 0.7]
        assert curve.ap == pytest.approx(5 / 6, abs=1e-9)

    def test_perfect_detector_scores_exactly_one(self):
        gt_images, preds = [], []
        conf = iter([0.91, 0.87, 0.83, 0.79, 0.75, 0.71])
        for i in range(3):
            boxes = [(j * 20, 0, j * 20 + 10, 10) for j in range(2)]
            gt_images.append(gt_image(f"img_{i}", boxes))
            preds.append(det_image(f"img_{i}", [(next(conf), b) for b in boxes]))
        report = mean_average_precision(Dataset.from_images(gt_images), preds)
        assert int(report.verdicts.is_tp.sum()) == 6
        assert average_precision(report.verdicts, total_gt=6).ap == 1.0

    def test_all_false_positives_score_zero(self):
        gt = gt_image("a", [(0, 0, 10, 10)])
        pred = det_image("a", [(0.9, (50, 50, 60, 60)), (0.4, (70, 70, 90, 90))])
        curve = average_precision(match_detections(gt, pred), total_gt=1)
        assert curve.ap == 0.0

    def test_missed_boxes_cap_the_recall(self):
        gt = gt_image("a", [(0, 0, 10, 10), (30, 30, 40, 40)])
        pred = det_image("a", [(0.9, (0, 0, 10, 10))])
        curve = average_precision(match_detections(gt, pred), total_gt=2)
        assert curve.points == ((0.5, 1.0),)
        assert curve.ap == 0.5

    def test_zero_total_gt_rejected(self):
        with pytest.raises(EvalError):
            average_precision(Verdicts(), total_gt=0)

    def test_agrees_with_cutoff_enumeration(self):
        for seed in range(40):
            table, total_gt = random_match_results(seed)
            if total_gt == 0:
                continue
            curve = average_precision(table, total_gt)
            ranked = list(zip(*map(list, (table.confidence, table.image, table.det_index,
                                         table.is_tp))))
            assert curve.ap == pytest.approx(cutoff_scan_ap(ranked, total_gt), abs=1e-12)

    def test_image_relabeling_does_not_change_ap(self):
        table, total_gt = random_match_results(3)
        assert total_gt > 0
        relabeled = replace(table, image=9 - table.image)
        assert average_precision(table, total_gt).ap == pytest.approx(
            average_precision(relabeled, total_gt).ap, abs=1e-12
        )


@st.composite
def match_result_lists(draw):
    """Few images, confidences and detection indices, rows in any order: ties are common."""
    rows = []
    tp_per_image = [0, 0, 0]
    for _ in range(draw(st.integers(0, 5))):
        image = draw(st.integers(0, 2))
        for det_index, confidence, is_tp in draw(st.lists(st.tuples(
            st.integers(0, 3), st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.booleans()
        ), max_size=8)):
            rows.append((image, det_index, confidence, tp_per_image[image] if is_tp else -1))
            tp_per_image[image] += is_tp
    return verdicts_table(rows), max(1, sum(tp_per_image) + draw(st.integers(0, 3)))


def _tied_verdicts_that_differ_in_is_tp():
    # Equal (confidence, image, det_index): only row order ranks the TP first.
    return verdicts_table([(0, 0, 0.5, 0), (0, 0, 0.5, -1)]), 1


class TestAveragePrecisionAgainstReference:
    """The cumulative-sum AP equals the rank-by-rank loop exactly, not approximately."""

    @staticmethod
    def assert_same(table, total_gt):
        curve = average_precision(table, total_gt)
        reference = reference_average_precision(oracle_matches(table), total_gt)
        assert curve_columns(curve) == reference_columns(*reference)

    @settings(max_examples=300, deadline=None)
    @given(match_result_lists())
    @example((Verdicts(), 1))
    @example((verdicts_table([(0, 0, 0.9, -1), (0, 1, 0.4, -1)]), 1))
    def test_generated_rankings(self, case):
        self.assert_same(*case)

    def test_worked_example(self, worked_example):
        gt, preds = worked_example
        result = match_detections(gt.images["img_0"], preds["img_0"])
        self.assert_same(result, 2)

    def test_whole_key_ties_keep_input_order(self):
        table, total_gt = _tied_verdicts_that_differ_in_is_tp()
        self.assert_same(table, total_gt)
        curve = average_precision(table, total_gt)
        assert (curve.recall.tolist(), curve.precision.tolist()) == ([1.0, 1.0], [1.0, 0.5])
        curve = average_precision(table[::-1], total_gt)
        assert (curve.recall.tolist(), curve.precision.tolist()) == ([0.0, 1.0], [0.0, 0.5])


class TestPRCurveValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(EvalError, match="one confidence per PR point required"):
            PRCurve(recall=[0.5], precision=[1.0], confidences=[])
        with pytest.raises(EvalError, match="recall and precision"):
            PRCurve(recall=[0.5, 1.0], precision=[1.0], confidences=[0.9, 0.8])
        with pytest.raises(EvalError, match="one-dimensional"):
            PRCurve(recall=[[0.5]], precision=[[1.0]], confidences=[[0.9]])

    def test_decreasing_recall_rejected(self):
        with pytest.raises(EvalError, match="recall must be non-decreasing along ranks"):
            PRCurve(recall=[0.5, 0.4], precision=[1.0, 0.5], confidences=[0.9, 0.8])


class TestPRCurveLayout:
    def test_columns_are_read_only_float64_copies(self):
        recall = np.array([0.5, 0.5, 1.0])
        curve = PRCurve(recall, [1, 0.5, 2 / 3], (0.9, 0.8, 0.7))
        recall[0] = 0.0
        for column in (curve.recall, curve.precision, curve.confidences):
            assert column.dtype == np.float64 and column.shape == (3,)
            assert not column.flags.writeable
        assert curve.recall.tolist() == [0.5, 0.5, 1.0]
        assert curve.ap == pytest.approx(5 / 6, abs=1e-12)

    def test_points_is_a_tuple_view_of_recall_and_precision(self, worked_example):
        gt, preds = worked_example
        curve = average_precision(match_detections(gt.images["img_0"], preds["img_0"]), 2)
        points = curve.points
        assert type(points) is tuple
        assert points == tuple(zip(curve.recall.tolist(), curve.precision.tolist()))
        assert points == ((0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3))
        assert PRCurve([], [], []).points == ()

    def test_equality_compares_the_columns_and_ap(self):
        curve = PRCurve([0.5, 1.0], [1.0, 1.0], [0.9, 0.8])
        assert curve == PRCurve(np.array([0.5, 1.0]), (1, 1), [0.9, 0.8])
        assert curve != PRCurve([0.5, 1.0], [1.0, 0.5], [0.9, 0.8])
        assert curve != PRCurve([0.5, 1.0], [1.0, 1.0], [0.9, 0.7])
        assert curve != PRCurve([0.5, 0.75], [1.0, 1.0], [0.9, 0.8])
        assert curve != PRCurve([1.0], [1.0], [0.9])
        with pytest.raises(TypeError):
            hash(curve)


# Few coordinates and confidences, so IoU and confidence ties are common;
# 'stem' has ground truth only, 'weed' detections only.
BOXES = st.builds(
    lambda left, top, w, h: (left, top, left + w, top + h),
    st.sampled_from([0.0, 2.5, 5.0]),
    st.sampled_from([0.0, 2.5, 5.0]),
    st.sampled_from([5.0, 7.5, 10.0]),
    st.sampled_from([5.0, 7.5, 10.0]),
)
GT_ROWS = st.builds(
    lambda name, box: (name, *box), st.sampled_from(["head", "leaf", "stem"]), BOXES
)
DET_ROWS = st.builds(
    lambda name, confidence, box: (name, confidence, *box),
    st.sampled_from(["head", "leaf", "weed"]),
    st.sampled_from([0.2, 0.5, 0.9]),
    BOXES,
)


class TestMeanAveragePrecision:
    def two_class_corpus(self):
        gt = Dataset.from_images(
            [
                ImageAnnotations("a", ["head", "tail"], [(0, 0, 10, 10), (20, 20, 30, 30)])
            ]
        )
        preds = {
            "a": ImageDetections(
                "a", ["head", "tail"], [(0, 0, 10, 10), (40, 40, 50, 50)], [0.9, 0.8]
            )
        }
        return gt, preds

    def test_single_class_map_equals_ap(self, worked_example):
        gt, preds = worked_example
        report = mean_average_precision(gt, preds)
        assert report.map_score == report.ap_per_class["head"]
        assert report.map_score == pytest.approx(5 / 6, abs=1e-9)

    def test_mean_over_classes(self):
        gt, preds = self.two_class_corpus()
        report = mean_average_precision(gt, preds)
        assert report.ap_per_class == {"head": 1.0, "tail": 0.0}
        assert report.map_score == 0.5

    def test_detections_of_unknown_class_are_ignored(self):
        gt, preds = self.two_class_corpus()
        a = preds["a"]
        extra = ImageDetections(
            "a",
            a.class_names + ("weed",),
            [*a.edges, (0, 0, 10, 10)],
            [*a.confidences, 0.99],
        )
        report = mean_average_precision(gt, {"a": extra})
        assert report.ap_per_class == {"head": 1.0, "tail": 0.0}
        assert sorted(report.pr_per_class) == ["head", "tail"]
        assert report.verdicts.det_index.tolist() == [0, 1]

    def test_matching_is_per_class(self):
        # A tail detection on top of a head box must not match it.
        gt = Dataset.from_images(
            [ImageAnnotations("a", ["head"], [(0, 0, 10, 10)])]
        )
        preds = {"a": det_image("a", [(0.9, (0, 0, 10, 10))], class_name="tail")}
        report = mean_average_precision(gt, preds)
        assert report.ap_per_class == {"head": 0.0}

    def test_match_results_index_into_the_whole_image(self):
        gt = Dataset.from_images(
            [
                ImageAnnotations(
                    "a",
                    ["head", "tail", "head"],
                    [(0, 0, 10, 10), (20, 20, 30, 30), (40, 40, 50, 50)],
                ),
                ImageAnnotations("b", ()),
            ]
        )
        preds = {
            "a": ImageDetections(
                "a",
                ["tail", "head", "head"],
                [(20, 20, 30, 30), (40, 40, 50, 50), (60, 60, 70, 70)],
                [0.8, 0.9, 0.7],
            ),
            "b": det_image("b", [(0.5, (0, 0, 10, 10))], class_name="tail"),
        }
        report = mean_average_precision(gt, preds)
        assert report.verdicts == Verdicts(
            image=[0, 0, 0, 1],
            det_index=[1, 0, 2, 0],
            confidence=[0.9, 0.8, 0.7, 0.5],
            matched_gt=[2, 1, -1, -1],
            iou=[1.0, 1.0, 0.0, 0.0],
        )
        row_classes = np.array(["head", "tail", "head", "tail"])
        for name, total in (("head", 2), ("tail", 1)):
            rows = report.verdicts[row_classes == name]
            expected = average_precision(rows, total)
            assert curve_columns(report.pr_per_class[name]) == curve_columns(expected)
        assert evaluate(gt, preds).verdicts == report.verdicts

    @given(
        st.lists(
            st.tuples(
                st.lists(GT_ROWS, max_size=6), st.none() | st.lists(DET_ROWS, max_size=6)
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([0.1, 0.3, 0.5, 0.7]),
    )
    def test_matches_the_per_class_subset_reference(self, images, iou_threshold):
        # A None prediction list means the image has no prediction file.
        assume(any(gt_rows for gt_rows, _ in images))
        corpus = [(f"img_{i}", gt_rows, det_rows) for i, (gt_rows, det_rows) in enumerate(images)]
        gt = Dataset.from_images(
            ImageAnnotations(image_id, [r[0] for r in rows], [r[1:] for r in rows])
            for image_id, rows, _ in corpus
        )
        preds = [
            ImageDetections(
                image_id, [r[0] for r in rows], [r[2:] for r in rows], [r[1] for r in rows]
            )
            for image_id, _, rows in corpus
            if rows is not None
        ]
        report = mean_average_precision(gt, preds, iou_threshold)
        expected = reference_class_matches(
            [(image_id, gt_rows, det_rows or []) for image_id, gt_rows, det_rows in corpus],
            iou_threshold,
        )
        assert np.all(np.diff(report.verdicts.image) >= 0)
        assert len(report.verdicts) == sum(len(vs) for rows in expected.values() for *_, vs in rows)
        det_classes = {image_id: [r[0] for r in rows or []] for image_id, _, rows in corpus}
        for name, rows in expected.items():
            assert [image_id for image_id, _, _ in rows] == list(gt.image_ids)
            for position, (image_id, _, verdicts) in enumerate(rows):
                table = report.verdicts[report.verdicts.image == position]
                names = det_classes[image_id]
                assert [v for v in verdict_rows(table) if names[v[0]] == name] == verdicts
        expected_pr = {
            name: curve_columns(average_precision(
                verdicts_table([(i, d, c, -1 if g is None else g)
                                for i, (_, _, vs) in enumerate(rows) for d, c, _, g, _ in vs]),
                sum(n for _, n, _ in rows),
            ))
            for name, rows in expected.items()
        }
        assert report_curves(report) == expected_pr

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.lists(GT_ROWS, max_size=5), st.lists(DET_ROWS, max_size=5)),
            min_size=1,
            max_size=5,
        ),
        st.permutations(["b", "a10", "B", "a9", "a"]),
        st.sampled_from([0.1, 0.5, 0.7]),
    )
    def test_confidence_ties_across_images_rank_by_image_id(self, images, ids, iou_threshold):
        # Images and predictions arrive in unsorted id order; the id tie-break is string
        # order ("B" < "a" < "a10" < "a9" < "b"), taken here by the oracles from the ids.
        assume(any(gt_rows for gt_rows, _ in images))
        corpus = [(image_id, *rows) for image_id, rows in zip(ids, images)]
        gt = Dataset.from_images(
            ImageAnnotations(image_id, [r[0] for r in rows], [r[1:] for r in rows])
            for image_id, rows, _ in corpus
        )
        preds = [
            ImageDetections(
                image_id, [r[0] for r in rows], [r[2:] for r in rows], [r[1] for r in rows]
            )
            for image_id, _, rows in corpus[::-1]
        ]
        report = evaluate(gt, preds, iou_threshold)
        for name, rows in reference_class_matches(corpus, iou_threshold).items():
            matches = [
                SimpleNamespace(image_id=image_id, verdicts=[
                    SimpleNamespace(det_index=d, confidence=c, is_tp=t) for d, c, t, _, _ in vs
                ])
                for image_id, _, vs in rows
            ]
            reference = reference_average_precision(matches, sum(n for _, n, _ in rows))
            assert curve_columns(report.pr_per_class[name]) == reference_columns(*reference)

    def test_image_without_prediction_file_counts_as_misses(self):
        gt = Dataset.from_images(
            [gt_image("a", [(0, 0, 10, 10)]), gt_image("b", [(0, 0, 10, 10)])]
        )
        preds = {"a": det_image("a", [(0.9, (0, 0, 10, 10))])}
        report = mean_average_precision(gt, preds)
        assert report.map_score == 0.5

    def test_unknown_image_rejected_by_name(self):
        gt = Dataset.from_images([gt_image("a", [(0, 0, 10, 10)])])
        preds = {
            "a": det_image("a", [(0.9, (0, 0, 10, 10))]),
            "ghost": det_image("ghost", [(0.9, (0, 0, 10, 10))]),
        }
        with pytest.raises(EvalError) as excinfo:
            mean_average_precision(gt, preds)
        assert "'ghost'" in str(excinfo.value)

    @pytest.mark.parametrize("score", [evaluate, mean_average_precision, count_regression])
    def test_prediction_keyed_under_another_id_rejected(self, score):
        gt = Dataset.from_images(
            [gt_image("x", [(0, 0, 10, 10)]), gt_image("z", [(0, 0, 10, 10), (20, 20, 30, 30)])]
        )
        x = det_image("x", [(0.9, (0, 0, 10, 10))])
        z = det_image("z", [(0.9, (0, 0, 10, 10)), (0.8, (20, 20, 30, 30))])
        assert evaluate(gt, {"x": x, "z": z}).map_score == 1.0
        with pytest.raises(EvalError, match="predictions for image 'z' are keyed as 'x'"):
            score(gt, {"x": z, "z": x})

    def test_empty_ground_truth_rejected(self):
        gt = Dataset.from_images([ImageAnnotations("a", ())])
        with pytest.raises(EvalError):
            mean_average_precision(gt, {})

    def test_iterable_and_mapping_predictions_agree(self, worked_example):
        gt, preds = worked_example
        from_map = mean_average_precision(gt, preds)
        from_list = mean_average_precision(gt, list(preds.values()))
        assert report_curves(from_map) == report_curves(from_list)
        assert from_map == from_list

    def test_duplicate_prediction_images_rejected(self, worked_example):
        gt, preds = worked_example
        twice = list(preds.values()) * 2
        with pytest.raises(EvalError):
            mean_average_precision(gt, twice)


def same_bits(actual, expected):
    return (actual.dtype, actual.shape, actual.tobytes()) == (
        expected.dtype, expected.shape, expected.tobytes()
    )


class TestCorpusVerdictTable:
    """The one corpus-wide verdict table: bit-identical to one table per image, joined and
    split by masks, and built within a memory bound."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.lists(GT_ROWS, max_size=6), st.none() | st.lists(DET_ROWS, max_size=8)),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([0.1, 0.5, 0.7, 1.0]),
    )
    @example([([("head", 0.0, 0.0, 5.0, 5.0)], [("head", 0.5, 0.0, 0.0, 5.0, 5.0)] * 2),
              ([], None), ([("leaf", 0.0, 0.0, 5.0, 5.0)], [("weed", 0.9, 0.0, 0.0, 5.0, 5.0)])],
             1.0)
    def test_verdicts_curves_and_ap_are_bit_identical(self, images, iou_threshold):
        # A None detection list means the image has no prediction file.
        assume(any(gt_rows for gt_rows, _ in images))
        gt = Dataset.from_images(
            ImageAnnotations(f"img_{i}", [r[0] for r in rows], [r[1:] for r in rows])
            for i, (rows, _) in enumerate(images)
        )
        preds = {
            f"img_{i}": ImageDetections(
                f"img_{i}", [r[0] for r in rows], [r[2:] for r in rows], [r[1] for r in rows]
            )
            for i, (_, rows) in enumerate(images)
            if rows is not None
        }
        report = mean_average_precision(gt, preds, iou_threshold)
        columns, curves = reference_mean_average_precision(gt, preds, iou_threshold)
        for name, expected in columns.items():
            assert same_bits(getattr(report.verdicts, name), expected), name
        assert list(report.pr_per_class) == list(curves)
        for name, (recall, precision, confidences, ap) in curves.items():
            curve = report.pr_per_class[name]
            assert same_bits(curve.recall, recall)
            assert same_bits(curve.precision, precision)
            assert same_bits(curve.confidences, confidences)
            assert curve.ap.hex() == report.ap_per_class[name].hex() == ap.hex()
        assert evaluate(gt, preds, iou_threshold).verdicts == report.verdicts

    def test_memory_peaks_within_three_times_the_result(self):
        # The count-dense shape: 250 images of about 103 boxes, one class, five false
        # positives per image. The bound leaves room for one copy of the verdict table
        # and the per-image IoU matrices, not for a second table or a list per rank.
        gt = generate_dataset(SynthConfig(n_images=250, seed=3))
        preds = simulate_detector(
            gt, DetectorNoise(miss_rate=0.1, false_positive_rate=5.0, jitter_sd=2.0, seed=1)
        )
        tracemalloc.start()
        try:
            report = mean_average_precision(gt, preds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        verdicts = report.verdicts
        result = sum(getattr(verdicts, name).nbytes for name in
                     ("image", "det_index", "confidence", "is_tp", "matched_gt", "iou"))
        result += sum(curve.recall.nbytes + curve.precision.nbytes + curve.confidences.nbytes
                      for curve in report.pr_per_class.values())
        assert len(verdicts) > 20_000
        assert peak <= 3 * result


@st.composite
def corpus_verdict_layouts(draw):
    """A verdict table and its class codes, rows laid out as ``_corpus_verdicts`` lays them out.

    Images run in corpus order, and each image's rows by descending
    confidence with ties in file order; a row of class -1 (no ground truth)
    is dropped. Few classes and confidences make ties within and across
    images common.
    """
    rows, codes = [], []
    for image in range(draw(st.integers(1, 5))):
        detections = draw(st.lists(
            st.tuples(st.integers(-1, 2), st.sampled_from([0.25, 0.5, 0.75])), max_size=8
        ))
        ranks = np.argsort([-confidence for _, confidence in detections], kind="stable")
        for det_index in ranks.tolist():
            code, confidence = detections[det_index]
            if code >= 0:
                # A TP here matches box 0: the ranking never reads which box.
                rows.append((image, det_index, confidence, draw(st.sampled_from([0, -1]))))
                codes.append(code)
    return verdicts_table(rows), np.array(codes, np.int64)


class TestTwoKeyRanking:
    """The class ranking sorts on (class, -confidence) alone and relies on the row layout
    for the image and detection-index keys; it must equal the four-key ranking."""

    @settings(max_examples=500, deadline=None)
    @given(corpus_verdict_layouts())
    def test_two_keys_give_the_four_key_order(self, layout):
        table, codes = layout
        assert np.array_equal(
            np.lexsort((-table.confidence, codes)), four_key_class_ranking(table, codes)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.lists(GT_ROWS, max_size=6), st.none() | st.lists(DET_ROWS, max_size=8)),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([0.1, 0.5, 0.7]),
    )
    def test_curves_equal_the_four_key_ranking_bit_for_bit(self, images, iou_threshold):
        # A None detection list means the image has no prediction file.
        assume(any(gt_rows for gt_rows, _ in images))
        gt = Dataset.from_images(
            ImageAnnotations(f"img_{i}", [r[0] for r in rows], [r[1:] for r in rows])
            for i, (rows, _) in enumerate(images)
        )
        preds = {
            f"img_{i}": ImageDetections(
                f"img_{i}", [r[0] for r in rows], [r[2:] for r in rows], [r[1] for r in rows]
            )
            for i, (_, rows) in enumerate(images)
            if rows is not None
        }
        totals = Counter(name for ann in gt for name in ann.class_names)
        codes = {name: code for code, name in enumerate(sorted(totals))}
        verdicts, class_codes = _corpus_verdicts(gt, preds, codes, iou_threshold)
        order = four_key_class_ranking(verdicts, class_codes)
        report = mean_average_precision(gt, preds, iou_threshold)
        assert list(report.pr_per_class) == list(codes)
        for name, code in codes.items():
            ranked = order[class_codes[order] == code]
            recall, precision, confidences, ap = reference_ranked_curve(
                verdicts.is_tp[ranked], verdicts.confidence[ranked], totals[name]
            )
            curve = report.pr_per_class[name]
            assert same_bits(curve.recall, recall)
            assert same_bits(curve.precision, precision)
            assert same_bits(curve.confidences, confidences)
            assert curve.ap.hex() == ap.hex()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), max_size=60), st.integers(0, 10**6), st.data())
    def test_ranked_curve_equals_the_plain_formula_bit_for_bit(self, is_tp, spare, data):
        is_tp = np.array(is_tp, bool)
        total_gt = max(1, int(is_tp.sum()) + spare)
        confidences = np.array(data.draw(st.lists(
            st.floats(0, 1), min_size=len(is_tp), max_size=len(is_tp)
        ).map(lambda values: sorted(values, reverse=True))), np.float64)
        curve = _ranked_curve(is_tp, confidences, total_gt)
        recall, precision, confidences, ap = reference_ranked_curve(is_tp, confidences, total_gt)
        assert same_bits(curve.recall, recall)
        assert same_bits(curve.precision, precision)
        assert same_bits(curve.confidences, confidences)
        assert curve.ap.hex() == ap.hex()


class TestValidationOrder:
    """``evaluate`` checks the predictions once and keeps every check in its place."""

    def test_evaluate_checks_the_predictions_once(self, worked_example, monkeypatch):
        from boxlab import evalcore

        calls = []
        original = evalcore._checked_predictions

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(evalcore, "_checked_predictions", counting)
        gt, preds = worked_example
        evaluate(gt, preds)
        assert len(calls) == 1

    @pytest.mark.parametrize("score", [evaluate, mean_average_precision])
    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, np.nan])
    def test_bad_iou_threshold_rejected_after_the_prediction_checks(self, score, threshold):
        gt = Dataset.from_images([gt_image("a", [(0, 0, 10, 10)])])
        with pytest.raises(EvalError, match=r"iou_threshold must be in \(0, 1\]"):
            score(gt, {}, threshold)
        with pytest.raises(EvalError, match="unknown image 'ghost'"):
            score(gt, [det_image("ghost", [])], threshold)
        empty = Dataset.from_images([ImageAnnotations("a", ())])
        with pytest.raises(EvalError, match="ground truth contains no boxes"):
            score(empty, {}, threshold)


def counting_corpus(true_counts, predicted_counts, confidence=0.9):
    """Images whose boxes all match so the count pair is (true, predicted)."""
    images = []
    preds = {}
    for i, (t, p) in enumerate(zip(true_counts, predicted_counts)):
        image_id = f"img_{i}"
        boxes = [(j * 20, 0, j * 20 + 10, 10) for j in range(max(t, p))]
        images.append(gt_image(image_id, boxes[:t]))
        preds[image_id] = det_image(image_id, [(confidence, b) for b in boxes[:p]])
    return Dataset.from_images(images), preds


class TestCountRegression:
    def test_equal_counts_score_exactly_one(self):
        gt, preds = counting_corpus([3, 5, 7], [3, 5, 7])
        pairs, r2 = count_regression(gt, preds)
        assert pairs == (("img_0", 3, 3), ("img_1", 5, 5), ("img_2", 7, 7))
        assert r2 == 1.0

    def test_proportional_counts_still_score_one_in_pearson_mode(self):
        gt, preds = counting_corpus([5, 10, 15], [4, 8, 12])
        pairs, r2 = count_regression(gt, preds, mode="pearson")
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(
            pearson_r_squared([t for _, t, _ in pairs], [p for _, _, p in pairs]),
            abs=1e-12,
        )

    def test_proportional_counts_penalized_in_identity_mode(self):
        gt, preds = counting_corpus([5, 10, 15], [4, 8, 12])
        _, r2 = count_regression(gt, preds, mode="identity")
        assert r2 == pytest.approx(0.72, abs=1e-12)

    def test_identity_mode_clamps_at_zero(self):
        gt, preds = counting_corpus([1, 2, 3], [30, 0, 50])
        _, r2 = count_regression(gt, preds, mode="identity")
        assert r2 == 0.0

    def test_constant_predictions_score_zero(self):
        gt, preds = counting_corpus([3, 5, 7], [4, 4, 4])
        _, r2 = count_regression(gt, preds)
        assert r2 == 0.0

    def test_random_counts_match_corrcoef(self):
        rng = np.random.default_rng(8)
        true = rng.integers(1, 120, 30).tolist()
        predicted = [max(0, t + int(rng.integers(-9, 10))) for t in true]
        gt, preds = counting_corpus(true, predicted)
        pairs, r2 = count_regression(gt, preds)
        assert r2 == pytest.approx(pearson_r_squared(true, predicted), abs=1e-12)

    def test_confidence_threshold_filters_counts(self):
        gt = Dataset.from_images([gt_image("a", [(0, 0, 10, 10)]), gt_image("b", [])])
        preds = {
            "a": det_image("a", [(0.6, (0, 0, 10, 10)), (0.4, (20, 20, 30, 30))]),
            "b": det_image("b", [(0.45, (0, 0, 10, 10))]),
        }
        pairs, _ = count_regression(gt, preds, confidence_threshold=0.5)
        assert pairs == (("a", 1, 1), ("b", 0, 0))

    def test_raising_the_threshold_never_raises_a_count(self):
        rng = np.random.default_rng(21)
        gt, preds = counting_corpus(rng.integers(1, 30, 8).tolist(),
                                    rng.integers(1, 30, 8).tolist())
        jittered = {
            image_id: ImageDetections(
                image_id,
                dets.class_names,
                dets.edges,
                [float(rng.uniform(0, 1)) for _ in range(len(dets))],
            )
            for image_id, dets in preds.items()
        }
        previous = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            pairs = count_regression(gt, jittered, confidence_threshold=threshold)[0]
            counts = [p for _, _, p in pairs]
            if previous is not None:
                assert all(now <= before for now, before in zip(counts, previous))
            previous = counts

    def test_missing_prediction_file_counts_zero(self):
        gt, preds = counting_corpus([2, 4], [2, 4])
        del preds["img_1"]
        pairs, _ = count_regression(gt, preds)
        assert pairs == (("img_0", 2, 2), ("img_1", 4, 0))

    def test_single_image_rejected(self):
        gt, preds = counting_corpus([4], [4])
        with pytest.raises(EvalError):
            count_regression(gt, preds)

    def test_constant_true_counts_rejected(self):
        gt, preds = counting_corpus([5, 5, 5], [4, 5, 6])
        with pytest.raises(EvalError) as excinfo:
            count_regression(gt, preds)
        assert "identical" in str(excinfo.value)

    def test_unknown_mode_rejected(self):
        gt, preds = counting_corpus([3, 5], [3, 5])
        with pytest.raises(EvalError):
            count_regression(gt, preds, mode="spearman")

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -2.0, 1.5])
    def test_bad_confidence_threshold_rejected(self, threshold):
        gt, preds = counting_corpus([3, 5], [3, 5])
        with pytest.raises(EvalError, match="confidence_threshold"):
            count_regression(gt, preds, confidence_threshold=threshold)

    def test_threshold_bounds_are_accepted(self):
        gt, preds = counting_corpus([3, 5], [3, 5], confidence=1.0)
        assert count_regression(gt, preds, confidence_threshold=1.0)[1] == 1.0
        assert count_regression(gt, preds, confidence_threshold=0.0)[1] == 1.0


class TestEvaluate:
    def test_composes_map_and_counts(self):
        gt, preds = counting_corpus([3, 5, 7], [3, 5, 7])
        report = evaluate(gt, preds)
        assert report.map_score == 1.0
        assert report.r_squared == 1.0
        assert report.count_pairs == (("img_0", 3, 3), ("img_1", 5, 5), ("img_2", 7, 7))
        assert report.iou_threshold == 0.70
        assert report.confidence_threshold == 0.5

    def test_degenerate_corpus_leaves_r_squared_unset(self, worked_example):
        gt, preds = worked_example
        report = evaluate(gt, preds)
        assert report.map_score == pytest.approx(5 / 6, abs=1e-9)
        assert report.r_squared is None
        assert report.count_pairs == (("img_0", 2, 3),)

    def test_unknown_mode_still_raises(self):
        gt, preds = counting_corpus([3, 5], [3, 5])
        with pytest.raises(EvalError):
            evaluate(gt, preds, r2_mode="spearman")

    @pytest.mark.parametrize("threshold", [np.nan, -np.inf, -2.0, 1.5])
    def test_bad_confidence_threshold_rejected(self, threshold):
        gt, preds = counting_corpus([3, 5], [3, 5])
        with pytest.raises(EvalError, match="confidence_threshold"):
            evaluate(gt, preds, confidence_threshold=threshold)


@st.composite
def synth_corpora(draw):
    """A small two-class synthetic corpus with explicit sizes, and its simulated detections."""
    n_images, seed = draw(st.integers(1, 8)), draw(st.integers(0, 2**16))
    halves = [
        generate_dataset(SynthConfig(
            n_images=n_images, image_width=300.0, image_height=200.0, count_mean=8.0,
            count_sd=4.0, width_range=(8.0, 60.0), class_name=name, seed=2 * seed + k,
        ))
        for k, name in enumerate(("head", "leaf"))
    ]
    gt = Dataset.from_images(
        ImageAnnotations(a.image_id, a.class_names + b.class_names, np.vstack([a.edges, b.edges]),
                         width=a.width, height=a.height)
        for a, b in zip(*halves)
    )
    assume(gt.total_boxes > 0)
    noise = DetectorNoise(miss_rate=0.2, false_positive_rate=2.0,
                          jitter_sd=draw(st.sampled_from([0.0, 2.0, 8.0])),
                          seed=draw(st.integers(0, 2**16)))
    return gt, simulate_detector(gt, noise)


class TestEvaluateMetamorphic:
    """Transforms of a corpus that must leave every evaluation result unchanged."""

    @settings(max_examples=40, deadline=None)
    @given(synth_corpora())
    def test_doubling_every_coordinate_changes_nothing(self, corpus):
        # Doubling is exact in binary floating point, so IoUs, and everything built on
        # them, stay bit-identical; the image sizes are given, not inferred.
        gt, preds = corpus
        doubled_gt = Dataset.from_images(
            replace(ann, edges=ann.edges * 2, width=ann.width * 2, height=ann.height * 2)
            for ann in gt
        )
        doubled_preds = {i: replace(p, edges=p.edges * 2) for i, p in preds.items()}
        report, doubled = evaluate(gt, preds), evaluate(doubled_gt, doubled_preds)
        assert report_curves(doubled) == report_curves(report)
        assert (doubled.map_score, doubled.r_squared) == (report.map_score, report.r_squared)
        for name in ("image", "det_index", "confidence", "is_tp", "matched_gt", "iou"):
            column, expected = getattr(doubled.verdicts, name), getattr(report.verdicts, name)
            assert column.tobytes() == expected.tobytes()
        assert doubled == report

    @settings(max_examples=40, deadline=None)
    @given(synth_corpora(), st.data())
    def test_renaming_images_in_sort_order_changes_only_the_ids(self, corpus, data):
        gt, preds = corpus
        new_ids = data.draw(st.sets(st.text("Bab019_", min_size=1, max_size=6),
                                    min_size=len(gt), max_size=len(gt)))
        rename = dict(zip(gt.image_ids, sorted(new_ids)))
        renamed_gt = Dataset.from_images(replace(a, image_id=rename[a.image_id]) for a in gt)
        renamed_preds = [replace(p, image_id=rename[p.image_id]) for p in preds.values()]
        report, renamed = evaluate(gt, preds), evaluate(renamed_gt, renamed_preds)
        assert renamed.count_pairs == tuple((rename[i], t, p) for i, t, p in report.count_pairs)
        assert report_curves(renamed) == report_curves(report)
        assert replace(renamed, count_pairs=report.count_pairs) == report
