import hashlib
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxlab import reports, svgplot
from boxlab.annotations import ROW_BLOCK
from boxlab.reports import fmt_num
from boxlab.svgplot import MARKERS, Series, escape, histogram_svg, line_svg, scatter_svg
from conftest import CLI_ENV, traced_peak
from oracles import reference_distinct, reference_series_markup


def parse_svg(text):
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    return root


SCATTER = [
    Series("boxes", ((1.0, 2.0), (3.5, 4.25), (10.0, 9.0))),
    Series("anchors", ((2.0, 2.0), (8.0, 8.0)), marker="cross"),
]


class TestFormatting:
    def test_six_significant_digits(self):
        assert fmt_num(0.123456789) == "0.123457"
        assert fmt_num(1200.0) == "1200"
        assert fmt_num(2 / 3) == "0.666667"

    def test_negative_zero_is_normalized(self):
        assert fmt_num(-0.0) == "0"
        assert fmt_num(-1e-9) == "-1e-09"


class TestEscape:
    @pytest.mark.parametrize(
        "text", ["", "plain", "a & b", "<tag>", "&amp;", "\"quoted\" 'single'", "&<>\"'&&<<>>"]
    )
    def test_matches_saxutils(self, text):
        assert escape(text) == sax_escape(text)

    @given(st.text(alphabet=st.sampled_from("&<>\"'a; #x")))
    def test_matches_saxutils_on_markup_characters(self, text):
        assert escape(text) == sax_escape(text)

    def test_labels_are_escaped(self):
        svg = scatter_svg(SCATTER, "w < 5 & h > 2", "height", title="a<b")
        assert "w &lt; 5 &amp; h &gt; 2" in svg
        parse_svg(svg)

    def test_cli_import_leaves_out_the_url_stack(self):
        probe = "import sys, boxlab.cli; print('urllib.request' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=CLI_ENV, check=True
        )
        assert done.stdout.strip() == "False"


class TestScatter:
    def test_is_well_formed_xml(self):
        parse_svg(scatter_svg(SCATTER, "width", "height", title="dims"))

    def test_deterministic(self):
        a = scatter_svg(SCATTER, "width", "height", annotation="mean = 0.5")
        b = scatter_svg(SCATTER, "width", "height", annotation="mean = 0.5")
        assert a == b

    def test_has_fixed_canvas_and_viewbox(self):
        root = parse_svg(scatter_svg(SCATTER, "x", "y"))
        assert root.get("width") == "640"
        assert root.get("height") == "480"
        assert root.get("viewBox") == "0 0 640 480"

    def test_labels_title_annotation_present(self):
        text = scatter_svg(
            SCATTER, "box width", "box height", title="corpus", annotation="n = 3"
        )
        for needle in ("box width", "box height", "corpus", "n = 3"):
            assert needle in text

    def test_legend_lists_series_labels(self):
        text = scatter_svg(SCATTER, "x", "y")
        assert "boxes" in text
        assert "anchors" in text

    def test_markup_characters_are_escaped(self):
        hostile = 'a<b>&"c'
        text = scatter_svg(
            [Series(hostile, ((0.0, 0.0), (1.0, 1.0)))], "x", "y", annotation=hostile
        )
        assert "a<b>" not in text
        assert "a&lt;b&gt;&amp;" in text
        parse_svg(text)

    def test_identity_line_is_dashed(self):
        with_line = scatter_svg(SCATTER, "x", "y", identity=True)
        without = scatter_svg(SCATTER, "x", "y", identity=False)
        assert "stroke-dasharray" in with_line
        assert "stroke-dasharray" not in without

    def test_explicit_ranges_set_the_axes(self):
        text = scatter_svg(
            [Series("pr", ((0.2, 0.9), (0.4, 0.8)), marker="line")],
            "recall",
            "precision",
            x_range=(0.0, 1.0),
            y_range=(0.0, 1.0),
        )
        parse_svg(text)
        assert ">1<" in text  # axis tick at 1.0 from the forced range

    def test_empty_series_without_ranges_rejected(self):
        with pytest.raises(ValueError):
            scatter_svg([Series("empty", ())], "x", "y")

    def test_unknown_marker_rejected(self):
        with pytest.raises(ValueError):
            Series("bad", ((0.0, 0.0),), marker="star")

    def test_single_point_gets_padded_axes(self):
        parse_svg(scatter_svg([Series("one", ((5.0, 5.0),))], "x", "y"))


class TestSeries:
    def test_points_are_a_read_only_copy(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]])
        series = Series("s", source)
        assert series.points.shape == (2, 2)
        assert series.points.dtype == np.float64
        assert not series.points.flags.writeable
        source[0, 0] = 9.0
        assert series.points[0, 0] == 1.0

    def test_empty_points_have_two_columns(self):
        assert Series("empty", ()).points.shape == (0, 2)

    def test_points_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Series("flat", [1.0, 2.0, 3.0, 4.0])

    def test_equality_compares_points_without_raising(self):
        pairs = Series("s", ((1.0, 2.0), (3.0, 4.0)))
        array = Series("s", np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert pairs == array
        assert pairs != Series("s", ((1.0, 2.0), (3.0, 5.0)))
        assert pairs != Series("s", ((1.0, 2.0),))
        assert pairs != Series("t", ((1.0, 2.0), (3.0, 4.0)))
        assert pairs != Series("s", ((1.0, 2.0), (3.0, 4.0)), marker="cross")
        assert pairs != ((1.0, 2.0), (3.0, 4.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("ranges", [{}, {"x_range": (0.0, 1.0), "y_range": (0.0, 1.0)}])
    def test_non_finite_point_rejected_when_built(self, bad, ranges):
        # Without ranges the ticks would fail later; with them, nothing would.
        with pytest.raises(ValueError, match="'p' has a non-finite point"):
            scatter_svg([Series("p", ((0.5, 0.5), (0.5, bad)))], "x", "y", **ranges)


def elements(root, tag):
    return [e for e in root.iter() if e.tag.rsplit("}", 1)[-1] == tag]


class TestWholePixels:
    """Points land on whole pixels: one marker per distinct pixel, no repeated vertex.

    On the unit ranges the plot maps x to 64 + 556 x and y to 432 - 396 y.
    """

    POINTS = ((0.0, 0.0), (0.0004, 0.0), (0.5, 0.5), (0.0, 0.0), (0.5, 0.5), (1.0, 1.0))
    UNIT = {"x_range": (0.0, 1.0), "y_range": (0.0, 1.0)}

    def test_one_marker_per_distinct_pixel_in_first_occurrence_order(self):
        root = parse_svg(scatter_svg([Series("s", self.POINTS)], "x", "y", **self.UNIT))
        (group,) = [g for g in elements(root, "g") if elements(g, "circle")]
        assert group.get("fill") == "#3b6ea5" and group.get("fill-opacity") == "0.65"
        assert [(c.get("cx"), c.get("cy")) for c in elements(group, "circle")] == [
            ("64", "432"), ("342", "234"), ("620", "36"),
        ]

    def test_polyline_drops_only_repeats_of_the_previous_vertex(self):
        root = parse_svg(line_svg([Series("s", self.POINTS)], "x", "y", **self.UNIT))
        (polyline,) = elements(root, "polyline")
        assert polyline.get("points") == "64,432 342,234 64,432 342,234 620,36"
        assert len(elements(root, "circle")) == 3

    def test_crosses_share_one_group(self):
        root = parse_svg(scatter_svg(
            [Series("a", ((0.0, 0.0), (0.0008, 0.0008), (1.0, 1.0)), marker="cross")],
            "x", "y", **self.UNIT,
        ))
        (group,) = elements(root, "g")
        assert group.get("stroke") == "#3b6ea5"
        assert [p.get("d") for p in elements(group, "path")] == [
            "M 60 428 L 68 436 M 60 436 L 68 428",
            "M 616 32 L 624 40 M 616 40 L 624 32",
        ]

    def test_peak_memory_is_a_small_multiple_of_the_text(self):
        # 100k points spread over the canvas: about 80k markers, 2.7 MB of markup.
        points = Series("s", np.random.default_rng(0).random((100_000, 2)))
        text, peak = traced_peak(lambda: scatter_svg([points], "x", "y", **self.UNIT))
        assert len(text) > 2_000_000
        assert peak < 4 * len(text)

    def test_size_follows_the_canvas_not_the_point_count(self):
        # 100k points in [0, 0.1]^2 cover at most 57 x 41 pixels.
        points = np.random.default_rng(0).random((100_000, 2)) / 10
        text = scatter_svg([Series("s", points)], "x", "y", **self.UNIT)
        assert len(elements(parse_svg(text), "circle")) <= 57 * 41
        assert len(text) < 100_000


# Whole pixels as rint leaves them: small values that repeat, -0.0, and values far
# off the canvas, whose span is too wide for exact codes, or infinite.
PIXELS = (
    st.integers(-3, 3).map(float)
    | st.sampled_from([-0.0, 2.0**31, -(2.0**31), 2.0**62, -(2.0**63), math.inf, -math.inf])
    | st.floats(-1e300, 1e300).map(np.rint)
)


class TestDistinct:
    """``_distinct`` on int64 pixel codes keeps the rows ``np.unique`` keeps, in their order."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(PIXELS, PIXELS), max_size=40))
    @example([(0.0, -0.0), (-0.0, 0.0), (1.0, 0.0), (0.0, 0.0)])
    @example([(2.0**40, 1.0), (-(2.0**40), 1.0), (2.0**40, 1.0)])
    def test_matches_unique_over_rows(self, rows):
        pixels = np.array(rows, dtype=np.float64).reshape(-1, 2)
        assert svgplot._distinct(pixels).tobytes() == reference_distinct(pixels).tobytes()


class TestLine:
    def test_series_render_as_polylines(self):
        text = line_svg(
            [Series("objective", ((0.0, 10.0), (1.0, 5.0), (2.0, 4.0)))],
            "iteration",
            "cost",
        )
        parse_svg(text)
        assert "<polyline" in text

    def test_coerces_markers_to_line(self):
        text = line_svg([Series("s", ((0.0, 1.0), (1.0, 0.0)), marker="circle")], "x", "y")
        assert "<polyline" in text


class TestHistogram:
    def test_draws_one_bar_per_nonzero_bin(self):
        text = histogram_svg([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [5, 0, 2], "count")
        parse_svg(text)
        # Background and plot frame, then one bar per non-empty bin.
        assert text.count("<rect") == 2 + 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_svg([], [], [], "count")

    def test_deterministic(self):
        bins = np.array([0.0, 10.0]), np.array([10.0, 20.0]), np.array([3, 9])
        assert histogram_svg(*bins, "v") == histogram_svg(*bins, "v")


def drawn_by_the_oracle(canvas, series):
    for element in reference_series_markup(series, canvas.sx, canvas.sy, svgplot.PALETTE):
        canvas.add(element)


# Small whole values repeat pixels; wide floats reach pixels in the millions,
# where %.6g writes an exponent.
COORDINATES = st.integers(-50, 50).map(float) | st.floats(-1e7, 1e7)
SERIES = st.builds(
    Series,
    st.sampled_from(["", "s"]),
    st.lists(st.tuples(COORDINATES, COORDINATES), max_size=30),
    st.sampled_from(MARKERS),
)
RANGES = st.none() | st.tuples(st.integers(-1000, 1000), st.integers(1, 1000)).map(
    lambda low_span: (float(low_span[0]), float(low_span[0] + low_span[1]))
)
# On the unit ranges x = -0.1155 lands on pixel -0.2 and y = 1.0914 on -0.2,
# which rint makes -0.0; x = 2000 lands on pixel 1112064, written 1.11206e+06.
EDGE_POINTS = ((-0.1155, 1.0914), (2000.0, -3000.0), (0.5, 0.5), (-1e6, 1e7), (0.5, 0.5))


class TestAgainstTheOracle:
    """Block-text markup equals the per-marker f-string renderer byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([scatter_svg, line_svg]),
        st.lists(SERIES, min_size=1, max_size=4),
        RANGES,
        RANGES,
        st.sampled_from([1, 2, 5, ROW_BLOCK]),
    )
    @example(
        scatter_svg, [Series("a", EDGE_POINTS, marker) for marker in MARKERS],
        (0.0, 1.0), (0.0, 1.0), 2,
    )
    @example(line_svg, [Series("a", EDGE_POINTS), Series("b", EDGE_POINTS[::-1])],
             (0.0, 1.0), (0.0, 1.0), 1)
    def test_matches_the_per_marker_renderer(self, chart, series, x_range, y_range, row_block):
        if (x_range is None or y_range is None) and not any(len(s.points) for s in series):
            return  # no data bounds: both renderers raise the same ValueError
        ranges = {"x_range": x_range, "y_range": y_range}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svgplot._Canvas, "draw_series", drawn_by_the_oracle)
            expected = chart(series, "x", "y", **ranges)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reports, "ROW_BLOCK", row_block)
            assert chart(series, "x", "y", **ranges) == expected

    def test_edge_points_reach_negative_zero_and_exponents(self):
        canvas = svgplot._Canvas(svgplot._ticks(0.0, 1.0), svgplot._ticks(0.0, 1.0))
        pixels = np.rint([canvas.sx(-0.1155), canvas.sy(1.0914), canvas.sx(2000.0)])
        assert [math.copysign(1.0, p) for p in pixels[:2]] == [-1.0, -1.0]
        text = scatter_svg([Series("a", EDGE_POINTS)], "x", "y", x_range=(0.0, 1.0),
                           y_range=(0.0, 1.0))
        assert '<circle cx="0" cy="0" r="3"/>' in text
        assert 'cx="1.11206e+06"' in text

    # SHA-256 of whole charts as the per-marker renderer wrote them, so the
    # frame, the grid and the line breaks around the markup are pinned too.
    DIGESTS = {
        "scatter": "994be91d5c8485b075b6fef3eedbc60b86d79ff2bd2f72b4b4e404daec5dea20",
        "line": "68def54c8aeeb5cd21dd8c39868f27782cc4eb59eae2e81e7e45a7b4048cc5cb",
        "histogram": "69ff4b144cb74eec7f9256055fb33c98fe7e6deb3ac678957b259965d78af82d",
    }

    def test_whole_charts_keep_their_bytes(self):
        points = np.random.default_rng(5).random((3000, 2)) * 100
        recall = np.linspace(0, 1, 500)
        charts = {
            "scatter": scatter_svg(
                [Series("boxes", points), Series("anchors", points[:20], "cross"),
                 Series("l", points[:50], "line")],
                "w", "h", title="t", annotation="a", identity=True,
            ),
            "line": line_svg(
                [Series("pr", np.column_stack((recall, np.linspace(1, 0, 500) ** 2)))],
                "recall", "precision", x_range=(0.0, 1.0), y_range=(0.0, 1.0),
            ),
            "histogram": histogram_svg([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [5, 0, 7], "v"),
        }
        digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in charts.items()}
        assert digests == self.DIGESTS
