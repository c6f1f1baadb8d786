import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boxlab.annotations import Dataset, ImageAnnotations
from boxlab.datastats import (
    StatsError,
    compute_stats,
    extract_dims,
    flag_outliers,
    histogram,
)
from boxlab.synthgen import SynthConfig, generate_dataset
from conftest import traced_peak


def image_with_counts(image_id, count, box_side=10.0, image_side=100.0):
    """An image_side-square image holding `count` disjoint box_side-squares."""
    edges = []
    per_row = int(image_side // box_side)
    for i in range(count):
        col, row = i % per_row, i // per_row
        left, top = col * box_side, row * box_side
        edges.append((left, top, left + box_side, top + box_side))
    return ImageAnnotations(
        image_id, ["head"] * count, edges, width=image_side, height=image_side
    )


def dataset_with_counts(counts, **kwargs):
    return Dataset.from_images(
        [image_with_counts(f"img_{i}", c, **kwargs) for i, c in enumerate(counts)]
    )


class TestComputeStats:
    def test_totals_and_mean(self):
        stats = compute_stats(dataset_with_counts([3, 5, 7]))
        assert stats.total_heads == 15
        assert stats.mean_count == 5.0
        assert stats.image_count == 3
        assert stats.count_quantiles == (3.0, 4.0, 5.0, 6.0, 7.0)

    def test_population_standard_deviation(self):
        stats = compute_stats(dataset_with_counts([2, 4, 4, 4, 5, 5, 7, 9]))
        assert stats.sd_count == 2.0

    def test_coverage_fraction(self):
        ann = ImageAnnotations("a", ["head"], [(0, 0, 10, 10)], width=100.0, height=100.0)
        stats = compute_stats(Dataset.from_images([ann]))
        row = stats.per_image[0]
        assert row.coverage_fraction == 0.01
        assert row.total_box_area == 100.0
        assert row.head_count == 1

    def test_box_free_image_contributes_zero(self):
        ds = Dataset.from_images(
            [image_with_counts("a", 4), ImageAnnotations("empty", ())]
        )
        stats = compute_stats(ds)
        by_id = {s.image_id: s for s in stats.per_image}
        assert by_id["empty"].coverage_fraction == 0.0
        assert by_id["empty"].total_box_area == 0.0
        assert stats.total_heads == 4

    def test_box_areas_are_summed_in_file_order(self):
        """The per-image area is the running sum over boxes in file order, bit for bit."""
        rng = np.random.default_rng(0)
        corners = rng.uniform(0, 50, (200, 2))
        edges = np.column_stack([corners, corners + rng.uniform(0.5, 40, (200, 2))])
        ann = ImageAnnotations("a", ["h"] * 200, edges, width=100.0, height=100.0)
        expected = 0.0
        for left, top, right, bottom in ann.edges.tolist():
            expected += (right - left) * (bottom - top)
        stats = compute_stats(Dataset.from_images([ann]))
        assert stats.per_image[0].total_box_area == expected

    def test_boxes_without_dims_is_an_error(self):
        ann = ImageAnnotations("a", ["h"], [(0, 0, 1, 1)])
        with pytest.raises(StatsError) as excinfo:
            compute_stats(Dataset.from_images([ann]))
        assert "'a'" in str(excinfo.value)

    @pytest.mark.parametrize(
        "edges, side, message",
        [
            (
                [(0, 0, 1e154, 1e154), (0, 0, 1.2e154, 1.2e154)],
                1.2e154,
                "box 1: box outside the coordinate domain",
            ),
            ([(0, 0, 10, 10)], 1e200, "'a': dimensions must be positive and finite, in [2**-50"),
            ([(0, 0, 1e-201, 1e-201)], 1e-200, "box 1: box outside the coordinate domain"),
        ],
        ids=["box-areas", "image-area", "image-area-underflow"],
    )
    def test_area_that_is_not_finite_is_an_error(self, edges, side, message):
        """Such an image lies outside the coordinate domain, so it cannot be built."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ImageAnnotations("a", ["h"] * len(edges), edges, width=side, height=side)

    @pytest.mark.parametrize("side", [2.0**-50, 2.0**50])
    def test_images_at_the_domain_edges_have_finite_figures(self, side):
        ann = ImageAnnotations("a", ["h"] * 3, [(0, 0, side, side)] * 3, width=side, height=side)
        row = compute_stats(Dataset.from_images([ann])).per_image[0]
        assert (row.total_box_area, row.coverage_fraction) == (3 * side * side, 3.0)

    def test_empty_dataset_is_an_error(self):
        with pytest.raises(StatsError):
            compute_stats(Dataset())

    def test_rows_follow_sorted_image_order(self):
        ds = dataset_with_counts([1, 2, 3])
        stats = compute_stats(ds)
        assert [s.image_id for s in stats.per_image] == ["img_0", "img_1", "img_2"]

    def test_scale_equivariance(self):
        """Doubling every length keeps coverage identical and scales areas by 4."""
        base = Dataset.from_images(
            [
                ImageAnnotations(
                    "a", ["h", "h"], [(3, 7, 19, 28), (40, 41, 77, 90)], width=120.0, height=130.0
                )
            ]
        )
        scaled = Dataset.from_images(
            [
                ImageAnnotations(
                    "a",
                    base.images["a"].class_names,
                    2 * base.images["a"].edges,
                    width=240.0,
                    height=260.0,
                )
            ]
        )
        one, two = compute_stats(base), compute_stats(scaled)
        assert two.per_image[0].coverage_fraction == one.per_image[0].coverage_fraction
        assert two.per_image[0].total_box_area == 4.0 * one.per_image[0].total_box_area
        assert two.coverage_quantiles == one.coverage_quantiles

    @given(st.permutations(list(range(6))))
    def test_aggregates_ignore_image_naming(self, order):
        """Renaming images permutes rows but leaves every aggregate unchanged."""
        counts = [3, 8, 1, 12, 5, 5]
        base = compute_stats(dataset_with_counts(counts))
        renamed = Dataset.from_images(
            [
                image_with_counts(f"img_{order[i]}", c)
                for i, c in enumerate(counts)
            ]
        )
        permuted = compute_stats(renamed)
        assert permuted.total_heads == base.total_heads
        assert permuted.mean_count == base.mean_count
        assert permuted.sd_count == base.sd_count
        assert permuted.count_quantiles == base.count_quantiles
        assert permuted.coverage_quantiles == base.coverage_quantiles
        assert sorted(s.head_count for s in permuted.per_image) == sorted(counts)


class TestExtractDims:
    def test_corpus_order_and_values(self):
        ds = Dataset.from_images(
            [
                ImageAnnotations("b", ["h"], [(0, 0, 7, 11)], width=50.0, height=50.0),
                ImageAnnotations(
                    "a", ["h", "h"], [(0, 0, 3, 4), (10, 10, 15, 12)], width=50.0, height=50.0
                ),
            ]
        )
        dims = extract_dims(ds)
        assert isinstance(dims, np.ndarray)
        assert dims.dtype == np.float64
        assert dims.shape == (3, 2)
        assert dims.tolist() == [[3.0, 4.0], [5.0, 2.0], [7.0, 11.0]]

    def test_result_is_the_only_copy_of_the_corpus_sides(self):
        ds = generate_dataset(SynthConfig(n_images=100, seed=7))
        dims, peak = traced_peak(lambda: extract_dims(ds))
        edges = np.concatenate([ann.edges for ann in ds])
        assert np.array_equal(dims, edges[:, 2:] - edges[:, :2])
        assert peak < 1.2 * dims.nbytes

    def test_boxless_corpus_gives_empty_pairs(self):
        ds = Dataset.from_images([ImageAnnotations("a", ()), ImageAnnotations("b", ())])
        dims = extract_dims(ds)
        assert dims.dtype == np.float64
        assert dims.shape == (0, 2)


class TestFlagOutliers:
    def test_thresholds_are_strict(self):
        # 3 heads of 10x10 in a 100x100 frame: count == min_count, coverage 0.03.
        stats = compute_stats(dataset_with_counts([3]))
        assert flag_outliers(stats, min_count=3, min_coverage=0.03) == []
        flagged = flag_outliers(stats, min_count=4, min_coverage=0.05)
        assert flagged == [
            ("img_0", "only 3 heads, below minimum 4"),
            ("img_0", "coverage 3.0% below 5.0%"),
        ]

    def test_count_rule_only(self):
        # 2 heads, each covering 9% of the frame: coverage passes, count fails.
        ann = ImageAnnotations(
            "a", ["h", "h"], [(0, 0, 30, 30), (40, 40, 70, 70)], width=100.0, height=100.0
        )
        stats = compute_stats(Dataset.from_images([ann]))
        assert flag_outliers(stats) == [("a", "only 2 heads, below minimum 3")]

    def test_clean_corpus_yields_nothing(self):
        stats = compute_stats(dataset_with_counts([50, 60, 70]))
        assert flag_outliers(stats) == []


class TestHistogram:
    def test_counts_sum_to_input_size(self):
        rows = histogram([1, 2, 2, 3, 9, 9, 9, 10], bins=3)
        assert len(rows) == 3
        assert sum(count for _, _, count in rows) == 8
        assert rows[0][0] == 1.0
        assert rows[-1][1] == 10.0

    def test_adjacent_edges_meet(self):
        rows = histogram(range(100), bins=7)
        for (_, right, _), (next_left, _, _) in zip(rows, rows[1:]):
            assert math.isclose(right, next_left)

    def test_single_value_input(self):
        rows = histogram([5.0, 5.0], bins=4)
        assert sum(count for _, _, count in rows) == 2

    def test_range_too_narrow_for_the_bins_is_widened_as_a_single_value(self):
        rows = histogram([1.0, 1.0 + 2**-52], bins=20)
        assert (rows[0][0], rows[-1][1]) == (0.5, 1.5 + 2**-52)
        assert [count for _, _, count in rows] == [0] * 10 + [2] + [0] * 9

    def test_empty_input_rejected(self):
        with pytest.raises(StatsError):
            histogram([], bins=5)

    def test_zero_bins_rejected(self):
        with pytest.raises(StatsError):
            histogram([1.0], bins=0)
