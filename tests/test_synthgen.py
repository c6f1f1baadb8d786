import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxlab.annotations import (
    MAX_COORDINATE, MIN_SIDE, Dataset, ImageAnnotations, load_dataset, save_dataset,
)
from boxlab.evalcore import evaluate
from boxlab.synthgen import (
    DetectorNoise,
    SynthConfig,
    SynthError,
    _restored,
    generate_dataset,
    simulate_detector,
)
from oracles import reference_simulate_detector


def rows(image):
    """The (left, top, right, bottom) tuple of each box of one image, in file order."""
    return [tuple(row) for row in image.edges.tolist()]


def dims(image):
    """The (width, height) of each box of one image, in file order."""
    return [(right - left, bottom - top) for left, top, right, bottom in rows(image)]


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
            dict(n_images=3, width_range=(math.nextafter(MIN_SIDE, 0.0), 50)),
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        with pytest.raises(SynthError):
            SynthConfig(**overrides)

    @pytest.mark.parametrize(
        "name, message",
        [("", "empty class name"), ("a b", "class name contains whitespace: 'a b'"),
         ("a\x1fb", "class name contains whitespace: 'a\\x1fb'")],
    )
    def test_class_name_is_checked_by_the_loaders_rule(self, name, message):
        with pytest.raises(SynthError) as excinfo:
            SynthConfig(n_images=1, class_name=name)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("side", [2.0**50 + 1, 1e17, 1e300, math.nan])
    def test_rejects_sides_above_2_to_the_50(self, side):
        for overrides in (dict(image_width=side), dict(image_height=side)):
            with pytest.raises(SynthError, match="at most 2"):
                SynthConfig(n_images=1, **overrides)

    @pytest.mark.parametrize("side", [math.nextafter(MIN_SIDE, 0.0), 0.0, -1.0])
    def test_rejects_sides_below_2_to_the_minus_50(self, side):
        with pytest.raises(SynthError, match=r"at least 2\*\*-50"):
            SynthConfig(n_images=1, image_width=side)

    def test_narrowest_width_range_generates_valid_boxes(self):
        config = SynthConfig(n_images=3, width_range=(MIN_SIDE, MIN_SIDE), seed=4)
        widths = [w for ann in generate_dataset(config) for w, _ in dims(ann)]
        assert widths and min(widths) >= MIN_SIDE

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
            for width, height in dims(ann):
                assert height == pytest.approx(width, abs=1e-9)

    def test_intercept_shifts_heights(self):
        ds = generate_dataset(
            small_config(line_slope=0.5, line_intercept=20.0, residual_sd=0.0)
        )
        for ann in ds:
            for width, height in dims(ann):
                assert height == pytest.approx(0.5 * width + 20.0, abs=1e-9)

    def test_boxes_stay_inside_the_frame(self):
        ds = generate_dataset(small_config(n_images=20, residual_sd=40.0, seed=17))
        for ann in ds:
            for left, top, right, bottom in rows(ann):
                assert 0.0 <= left < right <= 1200.0
                assert 0.0 <= top < bottom <= 1200.0

    def test_widths_respect_the_range(self):
        ds = generate_dataset(small_config(width_range=(30.0, 40.0)))
        for ann in ds:
            for width, _ in dims(ann):
                assert 30.0 <= width <= 40.0

    def test_huge_residuals_are_clamped_to_the_frame(self):
        ds = generate_dataset(
            small_config(n_images=10, residual_sd=2000.0, seed=2)
        )
        heights = [height for ann in ds for _, height in dims(ann)]
        assert min(heights) >= 0.5  # clamped to 1, minus any right-edge trim
        assert max(heights) <= 1200.0

    def test_count_distribution_is_calibrated(self):
        ds = generate_dataset(SynthConfig(n_images=300, seed=42))
        counts = [len(ann) for ann in ds]
        assert abs(np.mean(counts) - 103.0) < 3.0
        assert 15.0 < np.std(counts) < 35.0

    def test_class_name_is_carried(self):
        ds = generate_dataset(small_config(class_name="head"))
        assert {name for ann in ds for name in ann.class_names} == {"head"}


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


NON_FINITE = [math.nan, math.inf, -math.inf]
SYNTH_FLOATS = ["image_width", "image_height", "count_mean", "count_sd", "line_slope",
                "line_intercept", "residual_sd"]
NOISE_FLOATS = ["miss_rate", "false_positive_rate", "jitter_sd"]


def with_value_in_range(name, default, value, position):
    pair = list(default)
    pair[position] = value
    return {name: tuple(pair)}


class TestNonFiniteParameters:
    """Every float parameter (or end of a range) that is NaN or infinite is a SynthError."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", SYNTH_FLOATS)
    def test_synth_config(self, name, value):
        with pytest.raises(SynthError):
            SynthConfig(n_images=1, **{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("position", [0, 1])
    def test_synth_width_range(self, position, value):
        with pytest.raises(SynthError):
            SynthConfig(n_images=1, **with_value_in_range("width_range", (8.0, 90.0), value, position))

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", NOISE_FLOATS)
    def test_detector_noise(self, name, value):
        with pytest.raises(SynthError):
            DetectorNoise(**{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("name, default", [("tp_confidence", (0.5, 1.0)),
                                               ("fp_confidence", (0.05, 0.5))])
    def test_detector_confidence_ranges(self, name, default, position, value):
        with pytest.raises(SynthError):
            DetectorNoise(**with_value_in_range(name, default, value, position))


class TestSimulateDetector:
    def test_zero_noise_reproduces_ground_truth(self):
        ds = generate_dataset(small_config())
        preds = simulate_detector(ds, DetectorNoise())
        assert set(preds) == set(ds.images)
        for ann in ds:
            dets = preds[ann.image_id]
            assert len(dets) == len(ann)
            assert rows(dets) == rows(ann)
            assert dets.class_names == ann.class_names
            assert all(0.5 <= c < 1.0 for c in dets.confidences.tolist())

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
            boxes_lo = set(rows(preds_lo[image_id]))
            boxes_hi = set(rows(preds_hi[image_id]))
            assert boxes_hi <= boxes_lo

    def test_jitter_moves_boxes_but_keeps_them_valid(self):
        ds = generate_dataset(small_config(n_images=10))
        preds = simulate_detector(ds, DetectorNoise(jitter_sd=5.0, seed=8))
        moved = 0
        for ann in ds:
            originals = set(rows(ann))
            for box in rows(preds[ann.image_id]):
                left, top, right, bottom = box
                assert 0.0 <= left < right <= ann.width
                assert 0.0 <= top < bottom <= ann.height
                moved += box not in originals
        assert moved > 0

    def test_extreme_jitter_never_breaks_box_validity(self):
        ds = generate_dataset(small_config(n_images=6))
        preds = simulate_detector(ds, DetectorNoise(jitter_sd=500.0, seed=13))
        for dets in preds.values():
            for left, top, right, bottom in rows(dets):
                assert right > left
                assert bottom > top

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
            if high - low < MIN_SIDE:
                center = (low + high) / 2.0
                low, high = center - 0.5, center + 0.5
            span = min(high - low, limit)
            low = min(max(low, 0.0), limit - span)
            return low, low + span

        rng = np.random.default_rng(4)
        raws, expected = [], []
        for _ in range(2000):
            left, top = rng.uniform(0, 150, 2)
            row = [left, top, left + rng.uniform(0.5, 150), top + rng.uniform(0.5, 50)]
            offsets = rng.uniform(-1, 1, 4) * 10.0 ** rng.uniform(0, 15, 4)
            raw = [e + float(o) for e, o in zip(row, offsets)]
            left, right = unclipped_span(raw[0], raw[2], 300.0)
            top, bottom = unclipped_span(raw[1], raw[3], 200.0)
            raws.append(raw)
            expected.append([left, top, right, bottom])
        frames = np.tile([300.0, 200.0], (len(raws), 1))
        assert _restored(np.array(raws), frames).tolist() == expected

    @pytest.mark.parametrize("dims", [dict(width=1e17, height=1e17), {}], ids=["set", "inferred"])
    def test_loaded_frame_above_2_to_the_50_is_rejected(self, dims):
        """Such a frame cannot reach the simulator: the image constructor rejects it."""
        with pytest.raises(ValueError, match=r"box 1: box outside the coordinate domain"):
            ImageAnnotations("a", ["h"], [(0, 0, 1e16, 1e16)], **dims)
        if dims:
            with pytest.raises(ValueError, match=r"'a': dimensions must be .* 2\*\*50\]"):
                ImageAnnotations("a", ["h"], [(0, 0, 10, 10)], **dims)

    def test_loaded_frame_of_2_to_the_50_is_accepted(self):
        side = 2.0**50
        ann = ImageAnnotations("a", ["h"], [(0, 0, 10, 10)], width=side, height=side)
        preds = simulate_detector(Dataset.from_images([ann]), DetectorNoise(jitter_sd=5.0, seed=3))
        assert len(preds["a"]) == 1

    def test_a_frame_of_2_to_the_50_keeps_its_edges(self):
        side = 2.0**50
        row = [2.0**49, 2.0**48, 2.0**50 - 2.0**-3, 2.0**48 + 2.0**40]
        assert _restored(np.array([row]), np.array([[side, side]])).tolist() == [row]

    def test_a_side_narrower_than_2_to_the_minus_50_widens_to_1_px(self):
        """A side of MIN_SIDE stays; a positive one just below it widens, as an inverted one does."""
        sliver = math.nextafter(MIN_SIDE, 0.0)
        rows = [[0.0, 0.0, MIN_SIDE, sliver], [3.0, 7.0, 3.0 + 4 * MIN_SIDE, 7.0]]
        restored = _restored(np.array(rows), np.array([[100.0, 100.0]] * 2)).tolist()
        assert restored == [[0.0, 0.0, MIN_SIDE, 1.0], [3.0, 6.5, 3.0 + 4 * MIN_SIDE, 7.5]]

    def test_an_image_without_dimensions_is_framed_as_the_loader_sizes_it(self, tmp_path):
        """In memory, an image without dimensions gets the size it has after a save and load."""
        corpus = Dataset.from_images([
            ImageAnnotations("a", ["h", "h"], [(0.5, 1.0, 10.5, 3.0), (2.0, 0.25, 4.0, 7.75)]),
            ImageAnnotations("b", ["h"], [(1.0, 1.0, 2.5, 2.5)]),
            ImageAnnotations("c", ()),
        ])
        save_dataset(corpus, tmp_path)
        loaded = load_dataset(tmp_path)
        assert (loaded.images["a"].width, loaded.images["a"].height) == (11.0, 8.0)
        noise = DetectorNoise(false_positive_rate=3, jitter_sd=1, seed=4)
        assert simulate_detector(corpus, noise) == simulate_detector(loaded, noise)

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
        confidences = [c for dets in preds.values() for c in dets.confidences.tolist()]
        assert confidences
        assert all(0.05 <= c < 0.4 for c in confidences)

    def test_false_positive_dims_come_from_the_corpus(self):
        ds = generate_dataset(small_config(n_images=6, width_range=(20.0, 25.0)))
        corpus_dims = {(round(w, 6), round(h, 6)) for ann in ds for w, h in dims(ann)}
        preds = simulate_detector(
            ds, DetectorNoise(miss_rate=1.0, false_positive_rate=4.0, seed=5)
        )
        for dets in preds.values():
            for width, height in dims(dets):
                assert (round(width, 6), round(height, 6)) in corpus_dims

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


# Frame sides over the whole coordinate domain, both of its edges included.
SIDES = (
    st.sampled_from([MIN_SIDE, math.nextafter(MIN_SIDE, 1.0), 1.0, 3.5, 640.0, 1200.0])
    | st.just(MAX_COORDINATE)
    | st.floats(1.0, 5000.0)
    | st.floats(MIN_SIDE, MAX_COORDINATE)
)
FRACTIONS = st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)
# Box sides at and just above the smallest the domain allows.
SLIVERS = st.sampled_from([MIN_SIDE, math.nextafter(MIN_SIDE, 1.0), 3 * MIN_SIDE])


@st.composite
def simulator_corpora(draw):
    """Up to 4 images of up to 5 boxes in 3 classes, each with set or inferred dims.

    Edges include -0.0 and the frame's own sides; frames span the coordinate
    domain, from 2**-50 to 2**50 px, and some boxes are slivers just above
    2**-50 px. A drawn box outside the domain is dropped.
    """
    images = []
    for index in range(draw(st.integers(0, 4))):
        width, height = draw(SIDES), draw(SIDES)
        names, rows = [], []
        for _ in range(draw(st.integers(0, 5))):
            row = []
            for side in (width, height):
                a, b = draw(FRACTIONS), draw(FRACTIONS)
                low, high = min(a, b) * side, max(a, b) * side
                if draw(st.integers(0, 3)) == 0:
                    high = min(low + draw(SLIVERS), side)
                row.append((low, high))
            (left, right), (top, bottom) = row
            if right - left >= MIN_SIDE and bottom - top >= MIN_SIDE:
                names.append(draw(st.sampled_from("abc")))
                rows.append((left, top, right, bottom))
        dims = dict(width=width, height=height) if draw(st.booleans()) else {}
        images.append(ImageAnnotations(f"img{index}", names, rows, **dims))
    return Dataset.from_images(images)


@st.composite
def detector_noises(draw):
    low, high = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    return DetectorNoise(
        miss_rate=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        false_positive_rate=draw(st.sampled_from([0.0, 3.0]) | st.floats(0.0, 6.0)),
        jitter_sd=draw(st.sampled_from([0.0, 2.0, 500.0, 1e13, 1e300])),
        tp_confidence=draw(st.sampled_from([(0.5, 1.0), (0.7, 0.7), (low, low), (low, high)])),
        fp_confidence=(low, high),
        seed=draw(st.integers(0, 2**32)),
    )


class TestAgainstScalarSimulator:
    """``simulate_detector`` gives the bits of the one-box-at-a-time simulator."""

    @given(corpus=simulator_corpora(), noise=detector_noises())
    @example(corpus=Dataset.from_images([]), noise=DetectorNoise(false_positive_rate=3.0))
    @example(
        corpus=Dataset.from_images([ImageAnnotations("a", ["h"], [(-0.0, -0.0, 5.0, 5.0)])]),
        noise=DetectorNoise(jitter_sd=0.0, seed=1),
    )
    @example(  # a false positive too thin for where it lands
        corpus=Dataset.from_images(
            [ImageAnnotations("a", ["h"], [(-0.0, -0.0, 1.0, MIN_SIDE)], width=2.0**50, height=1.0)]
        ),
        noise=DetectorNoise(false_positive_rate=1.0, fp_confidence=(0.0, 0.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference(self, corpus, noise):
        expected = reference_simulate_detector(corpus, noise)
        actual = simulate_detector(corpus, noise)
        assert list(actual) == list(expected)
        for image_id, (names, edges, confidences) in expected.items():
            got = actual[image_id]
            assert got.image_id == image_id
            assert got.class_names == names
            assert got.edges.tobytes() == edges.tobytes()
            assert got.confidences.tobytes() == confidences.tobytes()

    @pytest.mark.parametrize(
        "noise",
        [
            DetectorNoise(miss_rate=0.1, false_positive_rate=5.0, jitter_sd=2.0, seed=1),
            DetectorNoise(miss_rate=0.3, false_positive_rate=1.0, jitter_sd=500.0, seed=2),
            DetectorNoise(jitter_sd=1e13, tp_confidence=(0.25, 0.25), seed=3),
        ],
        ids=["baseline", "jitter-500", "jitter-1e13"],
    )
    def test_matches_the_reference_on_a_generated_corpus(self, noise):
        corpus = generate_dataset(small_config(n_images=30, class_name="head"))
        expected = reference_simulate_detector(corpus, noise)
        actual = simulate_detector(corpus, noise)
        assert list(actual) == list(expected)
        for image_id, (names, edges, confidences) in expected.items():
            assert actual[image_id].class_names == names
            assert actual[image_id].edges.tobytes() == edges.tobytes()
            assert actual[image_id].confidences.tobytes() == confidences.tobytes()


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
