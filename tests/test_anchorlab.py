import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxlab import anchorlab
from boxlab.anchorlab import (
    DARKNET_SCALARS,
    DISTANCES,
    KMEANS_MAX_ITERATIONS,
    ROW_BLOCK,
    AnchorError,
    AnchorSet,
    DarknetConfigFragment,
    centered_iou_matrix,
    coverage,
    emit_darknet_fragment,
    kmeans_anchors,
    linefit_anchors,
    parse_darknet_fragment,
    run_kmeans,
)
from boxlab.datastats import extract_dims
from boxlab.synthgen import SynthConfig, generate_dataset
from oracles import (
    _reference_costs,
    bin_residual_variances,
    raster_centered_iou,
    reference_anchor_order,
    reference_run_kmeans,
)

OUTSIDE_DOMAIN = "{} must be positive and finite, in [2**-50, 2**50]"

GOLDEN_ANCHORS = [
    (10, 10), (16, 16), (19, 19), (16, 24), (24, 20), (23, 24), (28, 27),
    (23, 35), (32, 32), (38, 39), (50, 50), (60, 60), (80, 80),
]


# Anchor sides: small whole and half values give repeats and equal-area ties.
ANCHOR_SIDES = st.one_of(
    st.sampled_from([0.5, 1, 1.5, 2, 3, 4, 6, 8, 12]), st.floats(1e-9, 1e9), st.integers(1, 640)
)


def dims_of(pairs):
    return [(float(w), float(h)) for w, h in pairs]


def centered_iou(a, b) -> float:
    """Centered IoU of two (width, height) pairs: ``centered_iou_matrix`` on 1-row arrays."""
    return float(centered_iou_matrix(np.array([a], dtype=float), np.array([b], dtype=float))[0, 0])


class TestCenteredIou:
    def test_identical_dims_give_exactly_one(self):
        assert centered_iou((13, 27), (13, 27)) == 1.0

    def test_nested_squares(self):
        assert centered_iou((10, 10), (20, 20)) == 0.25

    def test_partial_overlap(self):
        value = centered_iou((16, 24), (24, 20))
        assert value == pytest.approx(320 / 544, abs=1e-12)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
    def test_matches_pixel_counting(self, wa, ha, wb, hb):
        exact = centered_iou((wa, ha), (wb, hb))
        assert exact == pytest.approx(raster_centered_iou(wa, ha, wb, hb), abs=1e-9)

    @given(
        st.floats(0.5, 100, allow_nan=False),
        st.floats(0.5, 100, allow_nan=False),
        st.floats(0.5, 100, allow_nan=False),
        st.floats(0.5, 100, allow_nan=False),
    )
    def test_symmetric_and_bounded(self, wa, ha, wb, hb):
        a, b = (wa, ha), (wb, hb)
        value = centered_iou(a, b)
        assert value == centered_iou(b, a)
        assert 0.0 < value <= 1.0

    def test_matrix_agrees_with_scalar(self):
        a = np.array([[10.0, 10.0], [16.0, 24.0]])
        b = np.array([[20.0, 20.0], [24.0, 20.0], [10.0, 10.0]])
        matrix = centered_iou_matrix(a, b)
        assert matrix.shape == (2, 3)
        for i, (wa, ha) in enumerate(a):
            for j, (wb, hb) in enumerate(b):
                assert matrix[i, j] == pytest.approx(centered_iou((wa, ha), (wb, hb)), abs=1e-12)


class TestAnchorSet:
    def test_from_dims_sorts_by_area_and_dedups(self):
        s = AnchorSet.from_dims([(30, 30), (10.0, 10.0), (10, 10), (20, 20)])
        assert s.pairs() == [(10.0, 10.0), (20.0, 20.0), (30.0, 30.0)]

    def test_equal_area_ties_sort_by_width(self):
        s = AnchorSet.from_dims([(20, 10), (10, 20)])
        assert s.pairs() == [(10.0, 20.0), (20.0, 10.0)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(ANCHOR_SIDES, ANCHOR_SIDES), min_size=1, max_size=30))
    def test_from_dims_matches_the_sorted_set_rule(self, pairs):
        expected = reference_anchor_order(pairs)
        assert AnchorSet.from_dims(pairs).pairs() == expected
        assert AnchorSet.from_dims(np.array(pairs, dtype=float)).pairs() == expected

    def test_dims_are_a_read_only_float64_copy(self):
        source = np.array([[10, 10], [20, 20]])
        s = AnchorSet(source)
        source[0, 0] = 99
        assert s.dims.dtype == np.float64 and s.dims.shape == (2, 2)
        assert s.dims.tolist() == [[10.0, 10.0], [20.0, 20.0]]
        with pytest.raises(ValueError):
            s.dims[0, 0] = 5.0

    def test_equality_compares_the_arrays(self):
        s = AnchorSet.from_dims([(20, 20), (10, 10)])
        assert s == AnchorSet(np.array([[10.0, 10.0], [20.0, 20.0]]))
        assert s != AnchorSet.from_dims([(10, 10), (20, 21)])
        assert s != AnchorSet.from_dims([(10, 10)])

    def test_unsorted_construction_rejected(self):
        with pytest.raises(AnchorError):
            AnchorSet([(20, 20), (10, 10)])

    def test_duplicate_anchor_rejected(self):
        with pytest.raises(AnchorError):
            AnchorSet([(10, 10), (10, 10)])

    def test_empty_rejected(self):
        with pytest.raises(AnchorError):
            AnchorSet(())
        with pytest.raises(AnchorError, match="empty"):
            AnchorSet(np.empty((0, 2)))

    def test_non_positive_anchor_rejected(self):
        with pytest.raises(AnchorError):
            AnchorSet([(0, 10)])

    @pytest.mark.parametrize("width", [float("nan"), float("inf")])
    def test_non_finite_anchor_rejected(self, width):
        with pytest.raises(AnchorError):
            AnchorSet([(width, 10)])

    def test_overflowing_area_rejected(self):
        with pytest.raises(AnchorError, match=re.escape(OUTSIDE_DOMAIN.format("anchors"))):
            AnchorSet.from_dims([(1e200, 1e200)])
        with pytest.raises(AnchorError, match=re.escape(OUTSIDE_DOMAIN.format("anchors"))):
            AnchorSet([(10, 10), (1e200, 1e200)])

    def test_underflowing_area_rejected(self):
        with pytest.raises(AnchorError, match=re.escape(OUTSIDE_DOMAIN.format("anchors"))):
            AnchorSet.from_dims([(1e-200, 1e-200)])
        with pytest.raises(AnchorError, match=re.escape(OUTSIDE_DOMAIN.format("anchors"))):
            AnchorSet([(1e-200, 1e-200), (10, 10)])

    @pytest.mark.parametrize(
        "pair, valid",
        [((2.0**-50, 2.0**50), True), ((math.nextafter(2.0**-50, 0), 1.0), False),
         ((1.0, 2.0**50 + 0.25), False)],
    )
    def test_values_at_the_domain_edges(self, pair, valid):
        if valid:
            assert AnchorSet([pair]).pairs() == [pair]
        else:
            with pytest.raises(AnchorError, match=re.escape(OUTSIDE_DOMAIN.format("anchors"))):
                AnchorSet([pair])


class TestKMeans:
    def test_recovers_two_well_separated_clusters_exactly(self):
        dims = dims_of([(10, 10)] * 30 + [(80, 80)] * 20)
        for distance in ("euclidean", "one_minus_iou"):
            for seed in range(5):
                anchors = kmeans_anchors(dims, k=2, distance=distance, seed=seed)
                assert anchors.pairs() == [(10.0, 10.0), (80.0, 80.0)]

    def test_k1_euclidean_centroid_is_the_mean(self):
        dims = dims_of([(2, 3), (4, 5), (9, 10)])
        run = run_kmeans(dims, k=1, distance="euclidean", seed=7)
        assert run.centroids[0] == pytest.approx([5.0, 6.0], abs=1e-12)
        assert list(run.labels) == [0, 0, 0]

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(99)
        dims = dims_of(zip(rng.uniform(5, 90, 80), rng.uniform(5, 90, 80)))
        a = run_kmeans(dims, k=5, seed=3)
        b = run_kmeans(dims, k=5, seed=3)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.labels, b.labels)
        assert a.objective_history == b.objective_history

    def test_centroids_round_to_two_decimals(self):
        dims = dims_of([(10, 10), (11, 11), (11, 10)])
        anchors = kmeans_anchors(dims, k=1, distance="euclidean")
        assert anchors.pairs() == [(10.67, 10.33)]

    @pytest.mark.parametrize("distance", ["euclidean", "one_minus_iou"])
    def test_centroids_rounding_to_one_anchor_rejected(self, distance):
        dims = dims_of([(0.011, 0.011), (0.012, 0.012), (0.0135, 0.0135), (0.014, 0.014)])
        run = run_kmeans(dims, k=2, distance=distance)
        first, second = map(tuple, run.centroids.tolist())
        with pytest.raises(AnchorError) as excinfo:
            kmeans_anchors(dims, k=2, distance=distance)
        assert str(excinfo.value) == (
            f"k-means centroids {first} and {second} round to the same anchor at 2 decimals"
        )

    @pytest.mark.parametrize("distance", ["euclidean", "one_minus_iou"])
    def test_objective_never_increases(self, distance):
        for seed in range(20):
            rng = np.random.default_rng([555, seed])
            widths = rng.uniform(5, 120, 150)
            heights = widths * rng.uniform(0.7, 1.4, 150)
            run = run_kmeans(dims_of(zip(widths, heights)), k=9, distance=distance, seed=seed)
            history = run.objective_history
            assert history
            tolerance = 1e-9 * max(1.0, history[0])
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + tolerance

    def test_one_full_cost_matrix_per_iteration(self, monkeypatch):
        # At most: the bounds only ever skip rows of the full matrix.
        rng = np.random.default_rng(21)
        dims = np.column_stack([rng.uniform(5, 90, 200), rng.uniform(5, 90, 200)])
        real_pair_costs = anchorlab._pair_costs
        full_size_calls = 0

        def counting_pair_costs(*columns):
            nonlocal full_size_calls
            costs = real_pair_costs(*columns)
            full_size_calls += costs.shape[0] == len(dims)
            return costs

        monkeypatch.setattr(anchorlab, "_pair_costs", counting_pair_costs)
        k = 4
        for distance in ("euclidean", "one_minus_iou"):
            full_size_calls = 0
            run = run_kmeans(dims, k=k, distance=distance, seed=2)
            # k seeding passes, the first assignment, then one per iteration.
            assert full_size_calls <= k + 1 + len(run.objective_history)

    @pytest.mark.parametrize("distance", ["euclidean", "one_minus_iou"])
    def test_bounds_skip_most_point_centroid_costs(self, monkeypatch, distance):
        rng = np.random.default_rng(5)
        centres = rng.uniform(10, 200, size=(8, 2))
        dims = np.repeat(centres, 250, axis=0) * rng.uniform(0.9, 1.1, size=(2000, 2))
        real = anchorlab._pair_costs
        evaluated = 0

        def counting(*columns):
            nonlocal evaluated
            costs = real(*columns)
            evaluated += costs.size
            return costs

        monkeypatch.setattr(anchorlab, "_pair_costs", counting)
        k = 8
        run = run_kmeans(dims, k=k, distance=distance, seed=0)
        assert evaluated < len(dims) * k * len(run.objective_history)

    @pytest.mark.parametrize("distance", ["euclidean", "one_minus_iou"])
    def test_last_objective_is_the_cost_of_the_result(self, distance):
        rng = np.random.default_rng(8)
        dims = np.column_stack([rng.uniform(5, 90, 120), rng.uniform(5, 90, 120)])
        run = run_kmeans(dims, k=5, distance=distance, seed=1)
        costs = _reference_costs(dims, run.centroids, distance)
        assert run.objective_history[-1] == float(costs[np.arange(len(dims)), run.labels].sum())

    def test_k_zero_rejected(self):
        with pytest.raises(AnchorError):
            run_kmeans(dims_of([(10, 10)]), k=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(AnchorError, match="seed"):
            run_kmeans(dims_of([(10, 10), (20, 20)]), k=1, seed=-1)

    def test_k_above_point_count_rejected(self):
        with pytest.raises(AnchorError):
            run_kmeans(dims_of([(10, 10), (20, 20)]), k=3)

    @pytest.mark.parametrize("distance", ["one_minus_iou", "euclidean"])
    def test_k_above_distinct_count_rejected(self, distance):
        with pytest.raises(AnchorError) as excinfo:
            run_kmeans(dims_of([(10, 10)] * 5), k=2, distance=distance)
        assert "distinct" in str(excinfo.value)

    @pytest.mark.parametrize("distance", ["one_minus_iou", "euclidean"])
    def test_k_equal_to_distinct_count_with_duplicates(self, distance):
        dims = dims_of([(10, 10)] * 4 + [(30, 12)] * 3 + [(12, 30)] * 2)
        for seed in range(10):
            run = run_kmeans(dims, k=3, distance=distance, seed=seed)
            assert sorted(map(tuple, run.centroids)) == [(10, 10), (12, 30), (30, 12)]

    def test_unknown_distance_rejected(self):
        with pytest.raises(AnchorError):
            run_kmeans(dims_of([(10, 10), (20, 20)]), k=1, distance="manhattan")

    @pytest.mark.parametrize("distance", ["one_minus_iou", "euclidean"])
    def test_overflowing_area_rejected(self, distance):
        dims = dims_of([(1e200, 1e200), (2e200, 1e200), (3e200, 1e200)])
        message = re.escape(OUTSIDE_DOMAIN.format("box dimensions"))
        with pytest.raises(AnchorError, match=message):
            run_kmeans(dims, k=2, distance=distance)
        with pytest.raises(AnchorError, match=message):
            linefit_anchors(dims)
        with pytest.raises(AnchorError, match=message):
            coverage(dims, AnchorSet.from_dims([(10, 10)]))

    @pytest.mark.parametrize("distance", ["one_minus_iou", "euclidean"])
    def test_underflowing_area_rejected(self, distance):
        # Each value is a positive float, but every width times height rounds to 0.
        dims = dims_of([(1e-200, 1e-200), (2e-200, 2e-200), (3e-200, 1e-200)])
        message = re.escape(OUTSIDE_DOMAIN.format("box dimensions"))
        with pytest.raises(AnchorError, match=message):
            run_kmeans(dims, k=2, distance=distance)
        with pytest.raises(AnchorError, match=message):
            linefit_anchors(dims)
        with pytest.raises(AnchorError, match=message):
            coverage(dims, AnchorSet.from_dims([(10, 10)]))

    def test_overflowing_seeding_weights_rejected(self):
        # Finite areas, but squared costs of about 1e200 would square past the float range.
        dims = dims_of([(1e100, 1e100), (2e100, 1e100), (3e100, 1e100)])
        with pytest.raises(AnchorError, match=re.escape(OUTSIDE_DOMAIN.format("box dimensions"))):
            run_kmeans(dims, k=2, distance="euclidean")


# Whole-pixel dims on a small grid, optionally scaled: duplicates and exact
# cost ties are common.
GRID_DIMS = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=40)


class TestKMeansAgainstPlainLoop:
    """The bounded loop returns bit for bit what the plain Lloyd loop returns."""

    @staticmethod
    def assert_same_run(
        dims, k, distance, seed, max_iterations=KMEANS_MAX_ITERATIONS, row_block=ROW_BLOCK
    ):
        centroids, labels, history = reference_run_kmeans(dims, k, distance, seed, max_iterations)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(anchorlab, "KMEANS_MAX_ITERATIONS", max_iterations)
            patch.setattr(anchorlab, "ROW_BLOCK", row_block)
            run = run_kmeans(dims, k, distance=distance, seed=seed)
        assert np.array_equal(run.centroids, centroids)
        assert np.array_equal(run.labels, labels)
        assert run.objective_history == history
        return labels

    @settings(max_examples=300, deadline=None)
    @given(
        GRID_DIMS,
        st.sampled_from([1.0, 0.1, 7.3]),
        st.sampled_from(DISTANCES),
        st.integers(0, 2**16),
        st.sampled_from([1, 2, 3, KMEANS_MAX_ITERATIONS]),
        st.sampled_from([1, 2, 5, ROW_BLOCK]),
        st.data(),
    )
    def test_matches_the_plain_loop(
        self, grid, scale, distance, seed, max_iterations, row_block, data
    ):
        # Row blocks of a few rows split the assignment of even the smallest grids.
        k = data.draw(st.integers(1, len(set(grid))), label="k")
        dims = np.array(grid, dtype=float) * scale
        self.assert_same_run(dims, k, distance, seed, max_iterations, row_block)

    @pytest.mark.parametrize(
        "sides, distance, seed",
        [
            ([4, 14, 14, 14, 14, 15, 25, 29, 29, 29, 32], "euclidean", 40),
            ([11.4, 22.1, 23.1, 21.1, 21.4, 24.0, 46.2, 61.2, 63.1, 62.9, 77.0],
             "one_minus_iou", 12),
        ],
    )
    def test_matches_when_a_cluster_empties(self, sides, distance, seed):
        labels = self.assert_same_run(dims_of(zip(sides, sides)), 3, distance, seed)
        assert len(np.unique(labels)) == 2

    def test_matches_on_the_baseline_corpus(self):
        dims = extract_dims(generate_dataset(SynthConfig(n_images=1000, seed=42)))
        self.assert_same_run(dims, 9, "one_minus_iou", 0)


# Sides whose double stays in the coordinate domain, down to its smallest side.
DOUBLABLE_SIDES = (
    st.integers(1, 9) | st.sampled_from([2.0**-50, 2.0**49]) | st.floats(2.0**-50, 2.0**49)
)


class TestScaleEquivariance:
    """Doubling every box dimension doubles the anchors and changes no assignment.

    Doubling is exact in floating point, and both distances scale exactly:
    squared Euclidean costs by 4, 1 - IoU not at all.
    """

    @pytest.mark.parametrize("distance", DISTANCES)
    @pytest.mark.parametrize("seed", range(4))
    def test_kmeans_on_doubled_dims(self, distance, seed):
        dims = extract_dims(generate_dataset(SynthConfig(n_images=40, seed=seed)))
        run = run_kmeans(dims, 9, distance, 0)
        doubled = run_kmeans(2 * dims, 9, distance, 0)
        assert np.array_equal(doubled.labels, run.labels)
        assert np.array_equal(doubled.centroids, 2 * run.centroids)
        factor = 4 if distance == "euclidean" else 1
        assert doubled.objective_history == tuple(factor * v for v in run.objective_history)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(DOUBLABLE_SIDES, DOUBLABLE_SIDES), min_size=1, max_size=30),
        st.sampled_from(DISTANCES),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_kmeans_on_doubled_dims_of_any_corpus(self, pairs, distance, seed, data):
        dims = np.array(pairs, dtype=float)
        k = data.draw(st.integers(1, len(set(pairs))), label="k")
        try:
            run = run_kmeans(dims, k, distance, seed)
        except AnchorError as error:
            with pytest.raises(AnchorError, match=re.escape(str(error))):
                run_kmeans(2 * dims, k, distance, seed)
            return
        doubled = run_kmeans(2 * dims, k, distance, seed)
        assert np.array_equal(doubled.labels, run.labels)
        assert np.array_equal(doubled.centroids, 2 * run.centroids)

    @pytest.mark.parametrize("distance", DISTANCES)
    @pytest.mark.parametrize("seed", range(4))
    def test_coverage_of_doubled_dims_and_anchors(self, distance, seed):
        dims = extract_dims(generate_dataset(SynthConfig(n_images=40, seed=seed)))
        anchors = kmeans_anchors(dims, 9, distance, 0)
        doubled = AnchorSet.from_dims(2 * anchors.dims)
        assert coverage(2 * dims, doubled) == coverage(dims, anchors)


class TestLineFit:
    def test_exact_line_with_floor_and_extras(self):
        # Heights are exactly 2x the widths, so the fit is h = 2w and every
        # residual is zero; all sampled anchors sit on the line.
        dims = dims_of([(10, 20), (20, 40), (30, 60), (40, 80)])
        anchors = linefit_anchors(dims, n_line=3, floor=(10, 10), n_total=5, variance_bins=2)
        assert anchors.pairs() == [
            (10.0, 10.0),
            (15.0, 30.0),
            (18.0, 35.0),
            (25.0, 50.0),
            (32.0, 65.0),
        ]

    def test_identity_line_wide_corpus(self):
        dims = dims_of([(w, w) for w in range(10, 101)])
        anchors = linefit_anchors(dims, n_line=9, floor=(10, 10), n_total=13)
        assert anchors.pairs() == [
            (10.0, 10.0), (14.0, 14.0), (19.0, 19.0), (23.0, 23.0), (28.0, 28.0),
            (32.0, 32.0), (37.0, 37.0), (46.0, 46.0), (55.0, 55.0), (64.0, 64.0),
            (73.0, 73.0), (82.0, 82.0), (91.0, 91.0),
        ]

    def test_budget_goes_to_the_noisiest_width_bin_first(self):
        # Middle widths carry residuals of +-8; the outer bins sit on the line.
        pairs = [(10, 10)] * 10 + [(20, 28)] * 5 + [(20, 12)] * 5 + [(30, 30)] * 10
        widths = [w for w, _ in pairs]
        heights = [h for _, h in pairs]
        assert bin_residual_variances(widths, heights, 1.0, 0.0, 3) == [0.0, 64.0, 0.0]
        anchors = linefit_anchors(dims_of(pairs), n_line=2, floor=None, n_total=4, variance_bins=3)
        assert anchors.pairs() == [(10.0, 10.0), (17.0, 17.0), (23.0, 23.0), (20.0, 28.0)]

    def test_anchor_extrapolated_past_the_domain_is_capped_at_2_to_the_50(self):
        # Two boxes 2**50 px tall pull the width-1 extra one residual deviation past 2**50.
        dims = dims_of([(1, 2.0**50), (1, 2.0**50), (1, 1), (2, 1), (2, 1), (3, 1)])
        anchors = linefit_anchors(dims, n_line=2, floor=None, n_total=4, variance_bins=3)
        assert anchors.pairs() == [
            (2.0, 1.0), (2.0, 225179981368526.0), (1.0, 675539944105575.0), (1.0, 2.0**50)
        ]

    def test_floor_skipped_when_boxes_are_smaller(self):
        dims = dims_of([(w, w) for w in (2, 3, 4, 5, 6)])
        anchors = linefit_anchors(dims, n_line=3, floor=(10, 10), n_total=5)
        assert (10.0, 10.0) not in anchors.pairs()
        assert np.all(anchors.dims[:, 0] < 10)

    @pytest.mark.parametrize(
        "floor",
        [(1e200, 1e200), (float("nan"), 10.0), (10.0, float("inf")), (10.0, 10.0, 10.0)],
        ids=["overflowing-area", "nan", "inf", "three-values"],
    )
    def test_floor_is_checked_even_when_not_added(self, floor):
        dims = dims_of([(w, w) for w in (2, 3, 4, 5, 6)])
        with pytest.raises(AnchorError, match="floor"):
            linefit_anchors(dims, n_line=3, floor=floor, n_total=5)

    def test_floor_is_exactly_the_extra_anchor(self):
        # With the floor in the budget, the remaining extras are the same
        # ones a floorless run one anchor short would pick, so coverage of
        # the corpus can only improve.
        for seed in range(8):
            rng = np.random.default_rng([556, seed])
            widths = rng.uniform(15, 100, 150)
            heights = widths * rng.uniform(0.8, 1.25, 150)
            dims = dims_of(zip(widths, heights))
            floored = linefit_anchors(dims, n_line=9, floor=(10, 10), n_total=13)
            floorless = linefit_anchors(dims, n_line=9, floor=None, n_total=12)
            assert (10.0, 10.0) in floored.pairs()
            assert set(floored.pairs()) == set(floorless.pairs()) | {(10.0, 10.0)}
            gain = (
                coverage(dims, floored).mean_best_iou
                - coverage(dims, floorless).mean_best_iou
            )
            assert gain >= 0.0

    def test_all_equal_widths_rejected(self):
        with pytest.raises(AnchorError) as excinfo:
            linefit_anchors(dims_of([(10, 5), (10, 9), (10, 30)]))
        assert "kmeans_anchors" in str(excinfo.value)

    def test_single_box_rejected(self):
        with pytest.raises(AnchorError):
            linefit_anchors(dims_of([(10, 10)]))

    def test_parameter_validation(self):
        dims = dims_of([(10, 10), (20, 20)])
        with pytest.raises(AnchorError):
            linefit_anchors(dims, n_line=0)
        with pytest.raises(AnchorError):
            linefit_anchors(dims, n_line=9, n_total=9)
        with pytest.raises(AnchorError):
            linefit_anchors(dims, variance_bins=0)

    def test_tiny_fitted_heights_are_clamped_to_one_pixel(self):
        # A steep negative line pushes fitted heights below zero at the
        # large-width end; those anchors must still be valid.
        dims = dims_of([(10, 40), (20, 30), (30, 20), (40, 1), (50, 1)])
        anchors = linefit_anchors(dims, n_line=4, floor=None, n_total=5, variance_bins=2)
        assert np.all(anchors.dims[:, 1] >= 1)


class TestCoverage:
    def test_perfect_priors(self):
        dims = dims_of([(10, 10), (20, 20)])
        diag = coverage(dims, AnchorSet.from_dims([(10, 10), (20, 20)]))
        assert diag.mean_best_iou == 1.0
        assert diag.recall_at_t == 1.0
        assert diag.per_anchor_assignment_counts.tolist() == [1, 1]
        assert diag.per_anchor_assignment_counts.dtype.kind == "i"
        assert not diag.per_anchor_assignment_counts.flags.writeable

    def test_mean_and_recall_hand_values(self):
        dims = dims_of([(10, 10), (20, 20)])
        diag = coverage(dims, AnchorSet.from_dims([(10, 10)]), threshold_t=0.5)
        assert diag.mean_best_iou == pytest.approx(0.625, abs=1e-12)
        assert diag.recall_at_t == 0.5
        assert diag.per_anchor_assignment_counts.tolist() == [2]

    def test_iou_tie_assigns_lower_index(self):
        diag = coverage(dims_of([(15, 15)]), AnchorSet.from_dims([(10, 20), (20, 10)]))
        assert diag.per_anchor_assignment_counts.tolist() == [1, 0]

    def test_assignment_counts_sum_to_box_count(self):
        rng = np.random.default_rng(4)
        dims = dims_of(zip(rng.uniform(5, 90, 60), rng.uniform(5, 90, 60)))
        diag = coverage(dims, AnchorSet.from_dims([(10, 10), (30, 30), (70, 70)]))
        assert sum(diag.per_anchor_assignment_counts) == 60

    def test_adding_anchors_never_hurts(self):
        for seed in range(10):
            rng = np.random.default_rng([557, seed])
            dims = dims_of(zip(rng.uniform(5, 120, 100), rng.uniform(5, 120, 100)))
            small = kmeans_anchors(dims, k=3, seed=seed)
            large = AnchorSet.from_dims(small.pairs() + [(12.0, 12.0), (55.0, 60.0)])
            assert len(large) > len(small)
            before, after = coverage(dims, small), coverage(dims, large)
            assert after.mean_best_iou >= before.mean_best_iou - 1e-12
            assert after.recall_at_t >= before.recall_at_t

    def test_empty_dims_rejected(self):
        with pytest.raises(AnchorError):
            coverage([], AnchorSet.from_dims([(10, 10)]))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_row_blocks_give_the_one_block_result(self, monkeypatch, block):
        rng = np.random.default_rng(12)
        dims = rng.uniform(5, 90, size=(300, 2))
        anchors = AnchorSet.from_dims([(10, 12), (30, 30), (28, 32), (70, 60)])
        whole = coverage(dims, anchors)
        monkeypatch.setattr(anchorlab, "ROW_BLOCK", block)
        assert coverage(dims, anchors) == whole


class TestDimsInput:
    @pytest.mark.parametrize(
        "dims",
        [
            [(10.0, 10.0, 1.0), (20.0, 20.0, 1.0)],
            [10.0, 20.0, 30.0, 40.0],
            [(10.0, 10.0), (0.0, 20.0)],
            [(10.0, 10.0), (20.0, -5.0)],
            [(10.0, 10.0), (float("nan"), 20.0)],
            [(10.0, 10.0), (float("inf"), 20.0)],
            [(10.0, "wide"), (20.0, 20.0)],
        ],
        ids=["three-columns", "flat", "zero", "negative", "nan", "inf", "text"],
    )
    def test_bad_dims_rejected(self, dims):
        anchors = AnchorSet.from_dims([(10, 10)])
        with pytest.raises(AnchorError):
            run_kmeans(dims, k=1)
        with pytest.raises(AnchorError):
            linefit_anchors(dims)
        with pytest.raises(AnchorError):
            coverage(dims, anchors)

    def test_list_and_array_inputs_agree(self):
        pairs = [(float(w), float(w) * 1.1) for w in range(10, 60, 3)]
        array = np.array(pairs)
        assert kmeans_anchors(pairs, k=3, seed=4) == kmeans_anchors(array, k=3, seed=4)
        assert linefit_anchors(pairs) == linefit_anchors(array)
        anchors = AnchorSet.from_dims([(10, 10), (30, 30)])
        assert coverage(pairs, anchors) == coverage(array, anchors)


class TestAssignMasks:
    """How a fragment assigns runs of anchor indices to its layers."""

    def test_partitions_smallest_first(self):
        anchors = AnchorSet.from_dims(GOLDEN_ANCHORS)
        fragment = DarknetConfigFragment(anchors, layers=(3, 4, 6))
        assert fragment.layers == (3, 4, 6)
        assert fragment.masks == ((0, 1, 2), (3, 4, 5, 6), (7, 8, 9, 10, 11, 12))
        assert fragment.anchors.pairs() == anchors.pairs()

    def test_sum_mismatch_rejected(self):
        with pytest.raises(AnchorError, match="sums to 3"):
            DarknetConfigFragment(AnchorSet.from_dims([(10, 10), (20, 20)]), layers=(3,))

    def test_zero_layer_rejected(self):
        with pytest.raises(AnchorError):
            DarknetConfigFragment(AnchorSet.from_dims([(10, 10)]), layers=(0, 1))

    @pytest.mark.parametrize(
        "count, layers", [(13, (3, 4, 6)), (9, (3, 3, 3)), (1, (1,)), (6, (6,)), (12, (12,))]
    )
    def test_auto_layout(self, count, layers):
        anchors = AnchorSet.from_dims((w, w) for w in range(1, count + 1))
        fragment = DarknetConfigFragment(anchors)
        assert fragment.layers == layers
        assert fragment == DarknetConfigFragment(anchors, layers=list(layers))


class TestDarknetFragment:
    def golden_fragment(self):
        anchors = AnchorSet.from_dims(GOLDEN_ANCHORS)
        return DarknetConfigFragment(anchors=anchors, classes=1, layers=(3, 4, 6))

    def test_emit_matches_golden_file_exactly(self, data_dir):
        golden = (data_dir / "darknet_golden.cfg").read_text(encoding="utf-8")
        assert emit_darknet_fragment(self.golden_fragment()) == golden

    def test_round_trip(self):
        fragment = self.golden_fragment()
        text = emit_darknet_fragment(fragment)
        parsed = parse_darknet_fragment(text)
        assert parsed == fragment
        assert emit_darknet_fragment(parsed) == text

    def test_single_layer_default_mask(self):
        fragment = DarknetConfigFragment(anchors=AnchorSet.from_dims([(12.5, 9.25)]))
        text = emit_darknet_fragment(fragment)
        assert text.count("[yolo]") == 1
        assert "mask = 0\n" in text
        assert "anchors = 12.5,9.25\n" in text
        assert "num = 1\n" in text

    def test_fractional_anchors_round_trip(self):
        anchors = AnchorSet.from_dims([(10.67, 10.33), (40.5, 39.75)])
        fragment = DarknetConfigFragment(anchors=anchors, classes=2)
        text = emit_darknet_fragment(fragment)
        parsed = parse_darknet_fragment(text)
        assert parsed == fragment
        assert parsed.anchors.pairs() == anchors.pairs()
        assert parsed.masks == fragment.masks
        assert parsed.classes == 2
        assert emit_darknet_fragment(parsed) == text

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(ANCHOR_SIDES, ANCHOR_SIDES), min_size=1, max_size=13),
        st.integers(1, 80),
    )
    def test_emit_then_parse_is_exact(self, pairs, classes):
        fragment = DarknetConfigFragment(AnchorSet.from_dims(pairs), classes=classes)
        assert parse_darknet_fragment(emit_darknet_fragment(fragment)) == fragment

    def test_sub_micro_anchor_is_written_losslessly(self):
        fragment = DarknetConfigFragment(AnchorSet.from_dims([(4e-7, 5), (3, 3)]))
        text = emit_darknet_fragment(fragment)
        assert "anchors = 4e-07,5, 3,3\n" in text
        assert parse_darknet_fragment(text) == fragment

    def test_parse_rejects_missing_key(self):
        with pytest.raises(AnchorError):
            parse_darknet_fragment("[yolo]\nanchors = 10,10\nclasses = 1\n")

    def test_parse_rejects_disagreeing_sections(self):
        text = emit_darknet_fragment(self.golden_fragment())
        tampered = text.replace("classes = 1", "classes = 2", 1)
        with pytest.raises(AnchorError) as excinfo:
            parse_darknet_fragment(tampered)
        assert "classes" in str(excinfo.value)

    def test_parse_rejects_odd_anchor_list(self):
        text = (
            "[yolo]\nmask = 0\nanchors = 10,10,20\nclasses = 1\nnum = 1\n"
            "jitter = 0.3\nignore_thresh = 0.7\ntruth_thresh = 1.0\nrandom = 1.0\n"
        )
        with pytest.raises(AnchorError):
            parse_darknet_fragment(text)

    def test_parse_rejects_wrong_num(self):
        text = (
            "[yolo]\nmask = 0\nanchors = 10,10\nclasses = 1\nnum = 3\n"
            "jitter = 0.3\nignore_thresh = 0.7\ntruth_thresh = 1.0\nrandom = 1.0\n"
        )
        with pytest.raises(AnchorError):
            parse_darknet_fragment(text)

    def test_parse_rejects_empty_text(self):
        with pytest.raises(AnchorError):
            parse_darknet_fragment("\n\n")

    def test_classes_must_be_positive(self):
        with pytest.raises(AnchorError):
            DarknetConfigFragment(anchors=AnchorSet.from_dims([(10, 10)]), classes=0)

    @staticmethod
    def text(*masks, **keys):
        """Fragment text, one section per mask (None: no mask line); keys override values."""
        anchors = keys.get("anchors", "10,10, 20,20")
        shared = {"anchors": anchors, "classes": "1", "num": str(len(anchors.split(",")) // 2)}
        shared.update({key: repr(value) for key, value in DARKNET_SCALARS.items()})
        shared.update(keys)
        lines = [f"{key} = {value}" for key, value in shared.items()]
        return "\n".join(
            "\n".join(["[yolo]", *([] if mask is None else [f"mask = {mask}"]), *lines]) + "\n"
            for mask in masks
        )

    def test_hand_written_text_is_what_emit_writes(self):
        fragment = DarknetConfigFragment(AnchorSet.from_dims([(10, 10), (20, 20)]), layers=(1, 1))
        assert emit_darknet_fragment(fragment) == self.text("0", "1")
        assert parse_darknet_fragment(self.text("0", "1")) == fragment

    def test_parse_rejects_mask_index_out_of_range(self):
        for mask in ("0,1", "-1"):
            with pytest.raises(AnchorError, match="consecutive"):
                parse_darknet_fragment(self.text(mask, anchors="10,10"))

    def test_parse_rejects_mask_index_reused_across_layers(self):
        with pytest.raises(AnchorError, match="consecutive"):
            parse_darknet_fragment(self.text("0", "0,1"))

    @pytest.mark.parametrize(
        "masks",
        [("2,1,0",), ("2", "0,1"), ("0,2", "1"), ("0", "1"), ("0", "2")],
        ids=["reversed", "layers-reversed", "interleaved", "missing-last", "gap"],
    )
    def test_parse_rejects_non_consecutive_masks(self, masks):
        with pytest.raises(AnchorError, match="consecutive"):
            parse_darknet_fragment(self.text(*masks, anchors="10,10, 20,20, 30,30"))

    @pytest.mark.parametrize(
        "key, value",
        [("jitter", "0.5"), ("ignore_thresh", "0.5"), ("truth_thresh", "0.5"), ("random", "0.0"),
         ("jitter", "nan")],
    )
    def test_parse_rejects_a_changed_scalar(self, key, value):
        with pytest.raises(AnchorError, match=key):
            parse_darknet_fragment(self.text("0", "1", **{key: value}))

    @pytest.mark.parametrize("masks", [("0", None), (None, "0,1"), (None,)])
    def test_parse_rejects_a_section_without_mask(self, masks):
        with pytest.raises(AnchorError, match="mask"):
            parse_darknet_fragment(self.text(*masks))

    @pytest.mark.parametrize(
        "key, masks, keys",
        [
            ("anchors", ("0",), dict(anchors="a,10")),
            ("classes", ("0", "1"), dict(classes="x")),
            ("mask", ("z",), dict(anchors="10,10")),
            ("jitter", ("0", "1"), dict(jitter="q")),
            ("num", ("0", "1"), dict(num="n")),
        ],
    )
    def test_parse_rejects_non_numeric_values(self, key, masks, keys):
        with pytest.raises(AnchorError, match=f"'{key}'"):
            parse_darknet_fragment(self.text(*masks, **keys))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_of_any_layout(self, data):
        two_decimals = st.integers(1, 99_999).map(lambda i: i / 100)
        pairs = data.draw(
            st.lists(st.tuples(two_decimals, two_decimals), min_size=1, max_size=15, unique=True)
        )
        anchors = AnchorSet.from_dims(pairs)
        n = len(anchors)
        cuts = data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        bounds = [0, *sorted(cuts), n]
        layers = [high - low for low, high in zip(bounds, bounds[1:])]
        fragment = DarknetConfigFragment(anchors, data.draw(st.integers(1, 80)), layers)
        text = emit_darknet_fragment(fragment)
        parsed = parse_darknet_fragment(text)
        assert parsed == fragment
        assert parsed.layers == tuple(layers)
        assert emit_darknet_fragment(parsed) == text
