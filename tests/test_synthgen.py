import math

import numpy as np
import pytest

from boxlab.annotations import save_dataset
from boxlab.evalcore import evaluate
from boxlab.synthgen import (
    DetectorNoise,
    SynthConfig,
    SynthError,
    _jittered,
    generate_dataset,
    simulate_detector,
)


def small_config(**overrides):
    defaults = dict(n_images=6, count_mean=12.0, count_sd=3.0, seed=5)
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestSynthConfigValidation:
    def test_defaults_are_valid(self):
        config = SynthConfig(n_images=1)
        assert config.image_width == 1200.0
        assert config.count_mean == 103.0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_images=0),
            dict(n_images=3, image_width=0),
            dict(n_images=3, count_mean=0),
            dict(n_images=3, count_sd=-1),
            dict(n_images=3, residual_sd=-0.5),
            dict(n_images=3, width_range=(0, 50)),
            dict(n_images=3, width_range=(60, 50)),
            dict(n_images=3, class_name=""),
            dict(n_images=3, class_name="two words"),
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        with pytest.raises(SynthError):
            SynthConfig(**overrides)

    @pytest.mark.parametrize("side", [2.0**50 + 1, 1e17, 1e300, math.nan])
    def test_rejects_sides_above_2_to_the_50(self, side):
        for overrides in (dict(image_width=side), dict(image_height=side)):
            with pytest.raises(SynthError, match="at most 2"):
                SynthConfig(n_images=1, **overrides)

    def test_largest_side_generates_valid_boxes(self):
        ds = generate_dataset(SynthConfig(n_images=2, image_width=2.0**50, image_height=2.0**50))
        assert all(ann.width == 2.0**50 and len(ann) for ann in ds)

    def test_rejects_frame_too_small_for_widest_box(self):
        with pytest.raises(SynthError) as excinfo:
            SynthConfig(n_images=1, image_width=80.0, image_height=1200.0)
        assert "too small" in str(excinfo.value)

    def test_rejects_frame_too_short_for_tallest_box(self):
        with pytest.raises(SynthError):
            SynthConfig(
                n_images=1,
                image_width=1200.0,
                image_height=100.0,
                line_slope=2.0,
                line_intercept=50.0,
            )


class TestNegativeSeeds:
    def test_generator_seed_rejected(self):
        with pytest.raises(SynthError, match="seed"):
            SynthConfig(n_images=1, seed=-1)

    def test_detector_seed_rejected(self):
        with pytest.raises(SynthError, match="seed"):
            DetectorNoise(seed=-3)


class TestGenerateDataset:
    def test_deterministic_in_memory(self):
        config = small_config()
        assert generate_dataset(config) == generate_dataset(config)

    def test_deterministic_on_disk(self, tmp_path):
        config = small_config()
        save_dataset(generate_dataset(config), tmp_path / "one")
        save_dataset(generate_dataset(config), tmp_path / "two")
        files_one = sorted(p.name for p in (tmp_path / "one").iterdir())
        files_two = sorted(p.name for p in (tmp_path / "two").iterdir())
        assert files_one == files_two
        for name in files_one:
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_seed_changes_the_corpus(self):
        assert generate_dataset(small_config(seed=5)) != generate_dataset(small_config(seed=6))

    def test_image_ids_and_dims(self):
        ds = generate_dataset(small_config(n_images=3))
        assert ds.image_ids == ("img_0000", "img_0001", "img_0002")
        for ann in ds:
            assert (ann.width, ann.height) == (1200.0, 1200.0)
            assert ann.dims_inferred is False

    def test_zero_count_spread_fixes_every_count(self):
        ds = generate_dataset(small_config(count_mean=5.0, count_sd=0.0))
        assert [len(ann) for ann in ds] == [5] * 6

    def test_zero_residuals_put_heights_on_the_line(self):
        ds = generate_dataset(
            small_config(line_slope=1.0, line_intercept=0.0, residual_sd=0.0)
        )
        for ann in ds:
            for gt in ann.boxes:
                assert gt.box.height == pytest.approx(gt.box.width, abs=1e-9)

    def test_intercept_shifts_heights(self):
        ds = generate_dataset(
            small_config(line_slope=0.5, line_intercept=20.0, residual_sd=0.0)
        )
        for ann in ds:
            for gt in ann.boxes:
                assert gt.box.height == pytest.approx(
                    0.5 * gt.box.width + 20.0, abs=1e-9
                )

    def test_boxes_stay_inside_the_frame(self):
        ds = generate_dataset(small_config(n_images=20, residual_sd=40.0, seed=17))
        for ann in ds:
            for gt in ann.boxes:
                box = gt.box
                assert 0.0 <= box.left < box.right <= 1200.0
                assert 0.0 <= box.top < box.bottom <= 1200.0

    def test_widths_respect_the_range(self):
        ds = generate_dataset(small_config(width_range=(30.0, 40.0)))
        for ann in ds:
            for gt in ann.boxes:
                assert 30.0 <= gt.box.width <= 40.0

    def test_huge_residuals_are_clamped_to_the_frame(self):
        ds = generate_dataset(
            small_config(n_images=10, residual_sd=2000.0, seed=2)
        )
        heights = [gt.box.height for ann in ds for gt in ann.boxes]
        assert min(heights) >= 0.5  # clamped to 1, minus any right-edge trim
        assert max(heights) <= 1200.0

    def test_count_distribution_is_calibrated(self):
        ds = generate_dataset(SynthConfig(n_images=300, seed=42))
        counts = [len(ann) for ann in ds]
        assert abs(np.mean(counts) - 103.0) < 3.0
        assert 15.0 < np.std(counts) < 35.0

    def test_class_name_is_carried(self):
        ds = generate_dataset(small_config(class_name="head"))
        assert {gt.class_name for ann in ds for gt in ann.boxes} == {"head"}


class TestDetectorNoiseValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(miss_rate=-0.1),
            dict(miss_rate=1.5),
            dict(false_positive_rate=-1),
            dict(jitter_sd=-1),
            dict(tp_confidence=(0.9, 0.5)),
            dict(tp_confidence=(-0.1, 0.5)),
            dict(fp_confidence=(0.5, 1.1)),
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        with pytest.raises(SynthError):
            DetectorNoise(**overrides)


class TestSimulateDetector:
    def test_zero_noise_reproduces_ground_truth(self):
        ds = generate_dataset(small_config())
        preds = simulate_detector(ds, DetectorNoise())
        assert set(preds) == set(ds.images)
        for ann in ds:
            dets = preds[ann.image_id].detections
            assert len(dets) == len(ann.boxes)
            for gt, det in zip(ann.boxes, dets):
                assert det.box == gt.box
                assert det.class_name == gt.class_name
                assert 0.5 <= det.confidence < 1.0

    def test_zero_noise_evaluates_perfectly(self):
        ds = generate_dataset(small_config(n_images=8))
        report = evaluate(ds, simulate_detector(ds, DetectorNoise()))
        assert report.map_score == 1.0
        assert report.r_squared == 1.0

    def test_deterministic(self):
        ds = generate_dataset(small_config())
        noise = DetectorNoise(miss_rate=0.2, false_positive_rate=1.0, jitter_sd=2.0, seed=9)
        assert simulate_detector(ds, noise) == simulate_detector(ds, noise)

    def test_noise_seed_changes_predictions(self):
        ds = generate_dataset(small_config())
        a = simulate_detector(ds, DetectorNoise(miss_rate=0.5, seed=1))
        b = simulate_detector(ds, DetectorNoise(miss_rate=0.5, seed=2))
        assert a != b

    def test_total_miss_leaves_nothing(self):
        ds = generate_dataset(small_config())
        preds = simulate_detector(ds, DetectorNoise(miss_rate=1.0))
        assert all(len(dets) == 0 for dets in preds.values())

    def test_miss_rate_is_calibrated(self):
        ds = generate_dataset(
            SynthConfig(n_images=100, count_mean=100.0, count_sd=0.0, seed=3)
        )
        preds = simulate_detector(ds, DetectorNoise(miss_rate=0.2, seed=4))
        kept = sum(len(d) for d in preds.values())
        assert abs(kept / 10_000 - 0.8) < 0.01

    def test_raising_miss_rate_only_removes_detections(self):
        # Survival draws are common random numbers across settings, so the
        # survivors at a higher miss rate are a subset of those at a lower.
        ds = generate_dataset(small_config(n_images=10))
        noise_lo = DetectorNoise(miss_rate=0.2, seed=6)
        noise_hi = DetectorNoise(miss_rate=0.6, seed=6)
        preds_lo = simulate_detector(ds, noise_lo)
        preds_hi = simulate_detector(ds, noise_hi)
        for image_id in preds_lo:
            boxes_lo = {d.box.as_tuple() for d in preds_lo[image_id].detections}
            boxes_hi = {d.box.as_tuple() for d in preds_hi[image_id].detections}
            assert boxes_hi <= boxes_lo

    def test_jitter_moves_boxes_but_keeps_them_valid(self):
        ds = generate_dataset(small_config(n_images=10))
        preds = simulate_detector(ds, DetectorNoise(jitter_sd=5.0, seed=8))
        moved = 0
        for ann in ds:
            originals = {gt.box.as_tuple() for gt in ann.boxes}
            for det in preds[ann.image_id].detections:
                box = det.box
                assert 0.0 <= box.left < box.right <= ann.width
                assert 0.0 <= box.top < box.bottom <= ann.height
                moved += box.as_tuple() not in originals
        assert moved > 0

    def test_extreme_jitter_never_breaks_box_validity(self):
        ds = generate_dataset(small_config(n_images=6))
        preds = simulate_detector(ds, DetectorNoise(jitter_sd=500.0, seed=13))
        for dets in preds.values():
            for det in dets.detections:
                assert det.box.right > det.box.left
                assert det.box.bottom > det.box.top

    @pytest.mark.parametrize("jitter_sd", [1e16, 1e300])
    def test_jitter_larger_than_the_frame_keeps_boxes_inside_it(self, jitter_sd):
        ds = generate_dataset(small_config(n_images=20))
        preds = simulate_detector(ds, DetectorNoise(jitter_sd=jitter_sd, seed=2))
        assert sum(len(d) for d in preds.values()) == ds.total_boxes
        for dets in preds.values():
            left, top, right, bottom = dets.edges.T
            assert (left >= 0).all() and (top >= 0).all()
            assert (right <= 1200).all() and (bottom <= 1200).all()

    def test_edges_within_2_to_the_51_are_not_clipped(self):
        """Clipping the jittered edges changes nothing for edges inside +-2**51 px."""

        def unclipped_span(low, high, limit):
            if high <= low:
                center = (low + high) / 2.0
                low, high = center - 0.5, center + 0.5
            span = min(high - low, limit)
            low = min(max(low, 0.0), limit - span)
            return low, low + span

        rng = np.random.default_rng(4)
        frame = (300.0, 200.0)
        for _ in range(2000):
            left, top = rng.uniform(0, 150, 2)
            row = [left, top, left + rng.uniform(0.5, 150), top + rng.uniform(0.5, 50)]
            offsets = rng.uniform(-1, 1, 4) * 10.0 ** rng.uniform(0, 15, 4)
            raw = [e + float(o) for e, o in zip(row, offsets)]
            left, right = unclipped_span(raw[0], raw[2], 300.0)
            top, bottom = unclipped_span(raw[1], raw[3], 200.0)
            assert _jittered(row, offsets, frame) == [left, top, right, bottom]

    def test_a_frame_above_2_to_the_50_keeps_its_edges(self):
        side = 2.0**53
        row = [2.0**52, 2.0**51, 2.0**52 + 2.0**40, 2.0**51 + 2.0**40]
        assert _jittered(row, np.zeros(4), (side, side)) == row

    def test_false_positive_count_is_calibrated(self):
        ds = generate_dataset(
            SynthConfig(n_images=200, count_mean=5.0, count_sd=0.0, seed=1)
        )
        preds = simulate_detector(
            ds, DetectorNoise(miss_rate=1.0, false_positive_rate=3.0, seed=2)
        )
        fp_counts = [len(d) for d in preds.values()]
        assert abs(np.mean(fp_counts) - 3.0) < 0.4
        assert max(fp_counts) > 5  # Poisson spread, not a constant

    def test_false_positives_use_their_own_confidence_band(self):
        ds = generate_dataset(small_config(n_images=10))
        preds = simulate_detector(
            ds,
            DetectorNoise(
                miss_rate=1.0,
                false_positive_rate=2.0,
                tp_confidence=(0.9, 1.0),
                fp_confidence=(0.05, 0.4),
                seed=3,
            ),
        )
        confidences = [d.confidence for dets in preds.values() for d in dets.detections]
        assert confidences
        assert all(0.05 <= c < 0.4 for c in confidences)

    def test_false_positive_dims_come_from_the_corpus(self):
        ds = generate_dataset(small_config(n_images=6, width_range=(20.0, 25.0)))
        corpus_dims = {
            (round(gt.box.width, 6), round(gt.box.height, 6))
            for ann in ds
            for gt in ann.boxes
        }
        preds = simulate_detector(
            ds, DetectorNoise(miss_rate=1.0, false_positive_rate=4.0, seed=5)
        )
        for dets in preds.values():
            for det in dets.detections:
                dims = (round(det.box.width, 6), round(det.box.height, 6))
                assert dims in corpus_dims

    def test_empty_corpus_cannot_emit_false_positives(self):
        ds = generate_dataset(small_config(count_mean=1.0, count_sd=0.0))
        # Remove every box but keep the images.
        from boxlab.annotations import Dataset, ImageAnnotations

        empty = Dataset.from_images(
            [ImageAnnotations(ann.image_id, width=ann.width, height=ann.height) for ann in ds]
        )
        preds = simulate_detector(empty, DetectorNoise(false_positive_rate=10.0))
        assert all(len(d) == 0 for d in preds.values())

    def test_degradation_is_monotone_in_miss_rate(self):
        # Averaged over seeds, a larger miss rate can only lower mAP; with
        # common random numbers it is monotone seed by seed as well.
        ds = generate_dataset(SynthConfig(n_images=12, count_mean=20.0, count_sd=4.0, seed=30))
        for seed in range(20):
            scores = []
            for miss in (0.0, 0.25, 0.5, 0.75):
                preds = simulate_detector(ds, DetectorNoise(miss_rate=miss, seed=seed))
                scores.append(evaluate(ds, preds).map_score)
            assert scores == sorted(scores, reverse=True)
            assert scores[0] == 1.0


class TestEndToEnd:
    def test_mild_noise_still_scores_high(self):
        ds = generate_dataset(SynthConfig(n_images=30, seed=7))
        preds = simulate_detector(
            ds, DetectorNoise(miss_rate=0.05, false_positive_rate=1.0, jitter_sd=1.0, seed=8)
        )
        report = evaluate(ds, preds)
        assert report.map_score > 0.85
        assert report.r_squared is not None and report.r_squared > 0.8

    def test_heavy_noise_scores_low(self):
        ds = generate_dataset(SynthConfig(n_images=20, seed=9))
        preds = simulate_detector(
            ds, DetectorNoise(miss_rate=0.7, false_positive_rate=40.0, jitter_sd=12.0, seed=10)
        )
        report = evaluate(ds, preds)
        assert report.map_score < 0.5
