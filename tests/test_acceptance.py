"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from boxlab.anchorlab import (
    Anchor,
    AnchorSet,
    DarknetConfigFragment,
    coverage,
    emit_darknet_fragment,
    kmeans_anchors,
    linefit_anchors,
    run_kmeans,
)
from boxlab.annotations import BoundingBox, Dataset, ImageAnnotations
from boxlab.datastats import compute_stats
from boxlab.evalcore import Verdicts, average_precision, evaluate, iou, match_detections
from boxlab.synthgen import DetectorNoise, SynthConfig, generate_dataset, simulate_detector
from conftest import run_cli
from oracles import cutoff_scan_ap, raster_iou

README = Path(__file__).resolve().parent.parent / "README.md"


def test_criterion_01_iou_matches_rasterization():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for _ in range(1000):
        boxes = []
        for _ in range(2):
            left = int(rng.integers(0, 190))
            top = int(rng.integers(0, 190))
            width = int(rng.integers(1, 200 - left + 1))
            height = int(rng.integers(1, 200 - top + 1))
            boxes.append(BoundingBox(left, top, left + width, top + height))
        a, b = boxes
        difference = abs(iou(a, b) - raster_iou(a, b, frame=200))
        worst = max(worst, difference)
        assert difference <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 5.0
    print(f"criterion 1 PASS: 1000 random pairs, worst |analytic - raster| = "
          f"{worst:.2e}, {elapsed:.2f}s")


def random_ap_instance(seed):
    """Random multi-image verdict table: <= 5 images, <= 20 detections."""
    rng = np.random.default_rng([202, seed])
    n_images = int(rng.integers(1, 6))
    confidences = iter((rng.permutation(np.arange(1, 1000)) / 1000.0).tolist())
    rows = []
    total_gt = 0
    budget = 20
    for i in range(n_images):
        gt_count = int(rng.integers(1, 7)) if i == 0 else int(rng.integers(0, 7))
        total_gt += gt_count
        n_det = int(rng.integers(0, min(4, budget) + 1))
        budget -= n_det
        unmatched = list(range(gt_count))
        for d, conf in enumerate(sorted((next(confidences) for _ in range(n_det)), reverse=True)):
            if unmatched and rng.random() < 0.6:
                rows.append((i, d, conf, True, unmatched.pop(0), 1.0))
            else:
                rows.append((i, d, conf, False, -1, 0.0))
    return Verdicts(*(zip(*rows) if rows else [()] * 6)), total_gt


def test_criterion_02_ap_matches_cutoff_enumeration():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        table, total_gt = random_ap_instance(seed)
        curve = average_precision(table, total_gt)
        ranked = list(zip(table.confidence.tolist(), table.image.tolist(),
                          table.det_index.tolist(), table.is_tp.tolist()))
        difference = abs(curve.ap - cutoff_scan_ap(ranked, total_gt))
        worst = max(worst, difference)
        assert difference <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2 PASS: 100 random instances, worst |ap - oracle| = "
          f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_worked_example(worked_example):
    gt, preds = worked_example
    ann = gt.images["img_0"]
    second_detection = preds["img_0"].detections[1]
    near_miss = iou(second_detection.box, ann.boxes[1].box)
    assert near_miss == pytest.approx(81 / 119, abs=1e-12)
    assert near_miss < 0.70
    result = match_detections(ann, preds["img_0"], iou_threshold=0.70)
    curve = average_precision(result, total_gt=2)
    assert curve.ap == pytest.approx(5 / 6, abs=1e-9)
    print(f"criterion 3 PASS: AP = {curve.ap:.10f} (5/6), near-miss IoU "
          f"{near_miss:.4f} = 81/119 < 0.70")


def test_criterion_04_zero_noise_pipeline_is_exact(tmp_path):
    start = time.perf_counter()
    dataset = generate_dataset(SynthConfig(n_images=300, seed=42))
    predictions = simulate_detector(dataset, DetectorNoise())
    report = evaluate(dataset, predictions)
    assert report.map_score == 1.0
    assert report.r_squared == 1.0

    out = tmp_path / "flow"
    code, _, _ = run_cli(
        "synth", "--images", "300", "--seed", "42", "--simulate", "--quiet", "--out", out
    )
    assert code == 0
    code, stdout, _ = run_cli("eval", out / "gt", out / "pred", "--out", out / "eval")
    assert code == 0
    assert "mAP = 1.0000" in stdout
    assert "R^2 = 1.0000" in stdout
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4 PASS: 300 images, mAP == 1.0 and R^2 == 1.0 exactly, "
          f"CLI agrees, {elapsed:.1f}s")


def bimodal_dims(seed, n=600):
    """Small mode near 10x10 plus a broad large mode near 80x80."""
    rng = np.random.default_rng([777, seed])
    n_small = int(round(n * 0.68))
    w_small = rng.uniform(5.0, 18.0, n_small)
    w_large = np.clip(rng.normal(80.0, 15.0, n - n_small), 40.0, 140.0)
    widths = np.concatenate([w_small, w_large])
    heights = widths * rng.uniform(0.8, 1.25, n)
    return np.column_stack([widths, heights])


def test_criterion_05_linefit_beats_kmeans_on_bimodal_dims():
    worst_iou_margin = 1.0
    worst_recall_margin = 1.0
    for seed in range(10):
        dims = bimodal_dims(seed)
        line_set = linefit_anchors(dims, n_line=9, floor=Anchor(10, 10), n_total=13)
        kmeans_set = kmeans_anchors(dims, k=9, distance="euclidean", seed=seed)
        line_cov = coverage(dims, line_set, threshold_t=0.5)
        kmeans_cov = coverage(dims, kmeans_set, threshold_t=0.5)
        iou_margin = line_cov.mean_best_iou - kmeans_cov.mean_best_iou
        recall_margin = line_cov.recall_at_t - kmeans_cov.recall_at_t
        assert iou_margin >= 0.0, f"seed {seed}: mean_best_iou margin {iou_margin:.4f}"
        assert recall_margin >= 0.02, f"seed {seed}: recall margin {recall_margin:.4f}"
        worst_iou_margin = min(worst_iou_margin, iou_margin)
        worst_recall_margin = min(worst_recall_margin, recall_margin)
    print(f"criterion 5 PASS: 10 seeds, worst margins mean_best_iou "
          f"+{worst_iou_margin:.4f}, recall@0.5 +{worst_recall_margin:.4f}")


def test_criterion_06_darknet_golden_file(data_dir):
    anchors = AnchorSet.from_dims(
        [
            (10, 10), (16, 16), (19, 19), (16, 24), (24, 20), (23, 24), (28, 27),
            (23, 35), (32, 32), (38, 39), (50, 50), (60, 60), (80, 80),
        ]
    )
    fragment = DarknetConfigFragment(anchors=anchors, classes=1, layers=(3, 4, 6))
    emitted = emit_darknet_fragment(fragment)
    golden = (data_dir / "darknet_golden.cfg").read_text(encoding="utf-8")
    assert emitted == golden
    print("criterion 6 PASS: 13-anchor fragment reproduces the golden config byte-exactly")


def scaled_twice(dataset):
    return Dataset.from_images(
        ImageAnnotations(
            ann.image_id, ann.class_names, 2.0 * ann.edges, 2.0 * ann.width, 2.0 * ann.height
        )
        for ann in dataset
    )


def test_criterion_07_generator_calibration_and_scale_equivariance():
    dataset = generate_dataset(SynthConfig(n_images=300, count_mean=103.0, count_sd=25.0, seed=42))
    stats = compute_stats(dataset)
    assert abs(stats.mean_count - 103.0) <= 3.0
    doubled = compute_stats(scaled_twice(dataset))
    for original, scaled in zip(stats.per_image, doubled.per_image):
        assert scaled.coverage_fraction == original.coverage_fraction
    assert doubled.coverage_quantiles == stats.coverage_quantiles
    print(f"criterion 7 PASS: mean_count = {stats.mean_count:.2f} (103 +- 3), "
          f"coverage bitwise-equal under 2x scaling")


def test_criterion_08_kmeans_exactness_and_monotonicity():
    dims = [(10.0, 10.0)] * 50 + [(80.0, 80.0)] * 50
    for distance in ("euclidean", "one_minus_iou"):
        for seed in range(5):
            anchors = kmeans_anchors(dims, k=2, distance=distance, seed=seed)
            assert anchors.pairs() == [(10.0, 10.0), (80.0, 80.0)]
    for distance in ("euclidean", "one_minus_iou"):
        for seed in range(20):
            rng = np.random.default_rng([808, seed])
            widths = rng.uniform(5, 120, 150)
            heights = widths * rng.uniform(0.7, 1.4, 150)
            dims_random = np.column_stack([widths, heights])
            history = run_kmeans(dims_random, k=9, distance=distance, seed=seed).objective_history
            tolerance = 1e-9 * max(1.0, history[0])
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + tolerance
    print("criterion 8 PASS: exact two-cluster recovery (both distances, 5 seeds), "
          "objective non-increasing on 20 random inputs per distance")


def test_criterion_09_readme_records_out_of_scope_results():
    text = README.read_text(encoding="utf-8")
    for value in ("0.95", "0.99", "0.92", "0.9513", "0.9016"):
        assert value in text, f"README must record the out-of-scope value {value}"
    lowered = text.lower()
    assert "out of scope" in lowered
    assert "dataset" in lowered
    print("criterion 9 PASS: README records 0.95/0.99/0.92 mAP and "
          "0.9513/0.9016 R^2 as out-of-scope, dataset-dependent results")
