"""Small deterministic SVG charts: scatter, histogram, line.

No plotting stack, no fonts to rasterize, no timestamps: the same data
always renders byte-identical markup. Numbers are written with 6
significant digits and '.' as the decimal separator regardless of locale.
Data points are drawn at whole pixels, one marker per distinct pixel, so a
chart's size is bounded by its canvas, not by its number of points. Their
markup is block text: one %-template per marker shape, filled from the
pixel columns by ``reports.block_text``, ``ROW_BLOCK`` points per string,
so charts and report CSVs format floats with one rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .annotations import frozen, same_fields
from .reports import FLOAT, block_text, fmt_num as fmt


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content.

    The same result as ``xml.sax.saxutils.escape``, without importing it:
    that module pulls in ``urllib.request`` and the ``http``/``email``
    packages, which every CLI process would pay for at start-up.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 64
MARGIN_RIGHT = 20
MARGIN_TOP = 36
MARGIN_BOTTOM = 48

PALETTE = ("#3b6ea5", "#c0504d", "#4f9153", "#8064a2", "#c78f2f")

AXIS_COLOR = "#444444"
GRID_COLOR = "#dddddd"
TEXT_COLOR = "#222222"
FONT = "font-family=\"sans-serif\""

MARKERS = ("circle", "cross", "line")


@dataclass(frozen=True, eq=False)
class Series:
    """One named point set; marker is 'circle', 'cross', or 'line'.

    ``points`` is anything that converts to an ``(n, 2)`` array of finite
    (x, y) values, such as an array or a sequence of pairs. It is stored as
    a read-only float64 copy. Two series are equal when their label, points
    and marker are; a series is not hashable.
    """

    label: str
    points: np.ndarray
    marker: str = "circle"

    def __post_init__(self):
        points = frozen(self.points)
        if points.size == 0:
            points = points.reshape(0, 2)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError(f"series {self.label!r} has a non-finite point")
        object.__setattr__(self, "points", points)
        if self.marker not in MARKERS:
            raise ValueError(f"unknown marker {self.marker!r}; expected one of {MARKERS}")

    __eq__ = same_fields


def _nice_step(raw: float) -> float:
    """Smallest 1/2/5 x 10^n step that is >= raw."""
    if raw <= 0:
        return 1.0
    power = math.floor(math.log10(raw))
    for mantissa in (1.0, 2.0, 5.0, 10.0):
        step = mantissa * 10.0**power
        if step >= raw * (1 - 1e-12):
            return step
    return 10.0 ** (power + 1)


def _ticks(lo: float, hi: float, max_ticks: int = 6) -> tuple[float, float, tuple[float, ...]]:
    """Expanded (axis_lo, axis_hi, tick positions) covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("cannot place ticks on non-finite bounds")
    if hi < lo:
        lo, hi = hi, lo
    if hi == lo:
        span = abs(lo) if lo != 0 else 1.0
        lo, hi = lo - span / 2, hi + span / 2
    step = _nice_step((hi - lo) / max(1, max_ticks - 1))
    axis_lo = math.floor(lo / step) * step
    axis_hi = math.ceil(hi / step) * step
    count = int(round((axis_hi - axis_lo) / step))
    ticks = tuple(round(axis_lo + i * step, 12) for i in range(count + 1))
    return axis_lo, axis_hi, ticks


def _data_bounds(series: Sequence[Series]):
    points = np.concatenate([np.empty((0, 2)), *(s.points for s in series)])
    if not len(points):
        raise ValueError("nothing to plot and no explicit ranges given")
    (x_lo, y_lo), (x_hi, y_hi) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    return (x_lo, x_hi), (y_lo, y_hi)


def _distinct(pixels: np.ndarray) -> np.ndarray:
    """The distinct rows of whole-number ``pixels``, each at its first occurrence, in order.

    Each row is one int64 code over the observed x and y spans, so -0.0 and
    0.0 are one pixel. A column spanning 2**31 pixels or more (a point far
    off the canvas) is coded by the rank of its values instead.
    """
    if not len(pixels):
        return pixels
    codes = np.zeros(len(pixels), dtype=np.int64)
    for column in pixels.T:
        low, high = float(column.min()), float(column.max())
        if high - low < 2.0**31:
            offsets = (column - low).astype(np.int64)
        else:
            offsets = np.unique(column, return_inverse=True)[1].astype(np.int64)
        codes *= offsets.max() + 1
        codes += offsets
    _, first = np.unique(codes, return_index=True)
    return pixels[np.sort(first)]


def _without_repeats(pixels: np.ndarray) -> np.ndarray:
    """``pixels`` without each row that equals the row before it."""
    moved = np.ones(len(pixels), dtype=bool)
    moved[1:] = (pixels[1:] != pixels[:-1]).any(axis=1)
    return pixels[moved]


class _Canvas:
    """Accumulates SVG lines, each ending in a line feed, over a fixed data-to-pixel mapping."""

    def __init__(self, x_axis, y_axis):
        self.x_lo, self.x_hi, self.x_ticks = x_axis
        self.y_lo, self.y_hi, self.y_ticks = y_axis
        self.plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self.plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        self.parts: list[str] = []

    def sx(self, x: float) -> float:
        return MARGIN_LEFT + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def sy(self, y: float) -> float:
        return MARGIN_TOP + self.plot_h - (y - self.y_lo) / (self.y_hi - self.y_lo) * self.plot_h

    def add(self, element: str) -> None:
        self.parts.append(element + "\n")

    def group(self, attributes: str, lines: Iterable[str]) -> None:
        """One ``<g>`` holding the elements of ``lines``, which share its ``attributes``."""
        self.add(f"<g {attributes}>")
        self.parts.extend(lines)
        self.add("</g>")

    def frame_and_grid(self, title: str, x_label: str, y_label: str) -> None:
        for tick in self.x_ticks:
            x = fmt(self.sx(tick))
            self.add(
                f'<line x1="{x}" y1="{fmt(MARGIN_TOP)}" x2="{x}" '
                f'y2="{fmt(MARGIN_TOP + self.plot_h)}" stroke="{GRID_COLOR}" stroke-width="1"/>'
            )
            self.add(
                f'<text x="{x}" y="{fmt(MARGIN_TOP + self.plot_h + 16)}" {FONT} '
                f'font-size="11" fill="{TEXT_COLOR}" text-anchor="middle">{fmt(tick)}</text>'
            )
        for tick in self.y_ticks:
            y = fmt(self.sy(tick))
            self.add(
                f'<line x1="{fmt(MARGIN_LEFT)}" y1="{y}" x2="{fmt(MARGIN_LEFT + self.plot_w)}" '
                f'y2="{y}" stroke="{GRID_COLOR}" stroke-width="1"/>'
            )
            self.add(
                f'<text x="{fmt(MARGIN_LEFT - 6)}" y="{y}" {FONT} font-size="11" '
                f'fill="{TEXT_COLOR}" text-anchor="end" dominant-baseline="middle">'
                f"{fmt(tick)}</text>"
            )
        self.add(
            f'<rect x="{fmt(MARGIN_LEFT)}" y="{fmt(MARGIN_TOP)}" width="{fmt(self.plot_w)}" '
            f'height="{fmt(self.plot_h)}" fill="none" stroke="{AXIS_COLOR}" stroke-width="1"/>'
        )
        if title:
            self.add(
                f'<text x="{fmt(WIDTH / 2)}" y="20" {FONT} font-size="14" '
                f'fill="{TEXT_COLOR}" text-anchor="middle">{escape(title)}</text>'
            )
        self.add(
            f'<text x="{fmt(MARGIN_LEFT + self.plot_w / 2)}" y="{fmt(HEIGHT - 10)}" {FONT} '
            f'font-size="12" fill="{TEXT_COLOR}" text-anchor="middle">{escape(x_label)}</text>'
        )
        self.add(
            f'<text x="16" y="{fmt(MARGIN_TOP + self.plot_h / 2)}" {FONT} font-size="12" '
            f'fill="{TEXT_COLOR}" text-anchor="middle" '
            f'transform="rotate(-90 16 {fmt(MARGIN_TOP + self.plot_h / 2)})">'
            f"{escape(y_label)}</text>"
        )

    def draw_series(self, series: Sequence[Series]) -> None:
        """Draw each series at whole pixels: one marker per distinct pixel.

        Markers keep the order of each pixel's first point, and a polyline
        vertex that repeats the one before it is dropped.
        """
        for i, s in enumerate(series):
            color = PALETTE[i % len(PALETTE)]
            pixels = np.rint(np.column_stack((self.sx(s.points[:, 0]), self.sy(s.points[:, 1]))))
            if s.marker == "line":
                vertices = _without_repeats(pixels)
                if len(vertices) >= 2:
                    coords = "".join(block_text(f"{FLOAT},{FLOAT} ", vertices.T))[:-1]
                    self.add(
                        f'<polyline points="{coords}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>'
                    )
            x, y = _distinct(pixels).T
            if not len(x):
                continue
            if s.marker == "cross":
                left, right, top, bottom = x - 4, x + 4, y - 4, y + 4
                path = f"M {FLOAT} {FLOAT} L {FLOAT} {FLOAT} M {FLOAT} {FLOAT} L {FLOAT} {FLOAT}"
                self.group(
                    f'stroke="{color}" stroke-width="1.8" fill="none"',
                    block_text(f'<path d="{path}"/>\n',
                               (left, top, right, bottom, left, bottom, right, top)),
                )
            else:
                # A line's vertices get small opaque dots.
                radius, opacity = ("2", "") if s.marker == "line" else ("3", ' fill-opacity="0.65"')
                circle = f'<circle cx="{FLOAT}" cy="{FLOAT}" r="{radius}"/>\n'
                self.group(f'fill="{color}"{opacity}', block_text(circle, (x, y)))

    def legend(self, series: Sequence[Series]) -> None:
        labeled = [(i, s) for i, s in enumerate(series) if s.label]
        if not labeled:
            return
        for row, (i, s) in enumerate(labeled):
            color = PALETTE[i % len(PALETTE)]
            y = MARGIN_TOP + 14 + row * 16
            x = MARGIN_LEFT + self.plot_w - 130
            self.add(f'<rect x="{fmt(x)}" y="{fmt(y - 8)}" width="10" height="10" fill="{color}"/>')
            self.add(
                f'<text x="{fmt(x + 15)}" y="{fmt(y)}" {FONT} font-size="11" '
                f'fill="{TEXT_COLOR}">{escape(s.label)}</text>'
            )

    def annotate(self, annotation: str) -> None:
        if annotation:
            self.add(
                f'<text x="{fmt(MARGIN_LEFT + 10)}" y="{fmt(MARGIN_TOP + 18)}" {FONT} '
                f'font-size="12" fill="{TEXT_COLOR}">{escape(annotation)}</text>'
            )

    def identity_line(self) -> None:
        lo = max(self.x_lo, self.y_lo)
        hi = min(self.x_hi, self.y_hi)
        if hi > lo:
            self.add(
                f'<line x1="{fmt(self.sx(lo))}" y1="{fmt(self.sy(lo))}" '
                f'x2="{fmt(self.sx(hi))}" y2="{fmt(self.sy(hi))}" '
                f'stroke="{AXIS_COLOR}" stroke-width="1" stroke-dasharray="4,3"/>'
            )

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" width="{WIDTH}" height="{HEIGHT}">\n'
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        )
        return "".join([head, *self.parts, "</svg>\n"])


def _chart(
    series: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str,
    annotation: str,
    identity: bool,
    x_range: tuple[float, float] | None,
    y_range: tuple[float, float] | None,
) -> str:
    series = tuple(series)
    if x_range is None or y_range is None:
        (x_lo, x_hi), (y_lo, y_hi) = _data_bounds(series)
        if x_range is None:
            x_range = (x_lo, x_hi)
        if y_range is None:
            y_range = (y_lo, y_hi)
    canvas = _Canvas(_ticks(*x_range), _ticks(*y_range))
    canvas.frame_and_grid(title, x_label, y_label)
    if identity:
        canvas.identity_line()
    canvas.draw_series(series)
    canvas.legend(series)
    canvas.annotate(annotation)
    return canvas.render()


def scatter_svg(
    series: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str = "",
    annotation: str = "",
    identity: bool = False,
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
) -> str:
    """Scatter chart of one or more point series, optional y=x reference line."""
    return _chart(series, x_label, y_label, title, annotation, identity, x_range, y_range)


def line_svg(
    series: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str = "",
    annotation: str = "",
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
) -> str:
    """Polyline chart; points connect in the order given (no sorting)."""
    series = tuple(
        Series(s.label, s.points, "line") if s.marker != "line" else s for s in series
    )
    return _chart(series, x_label, y_label, title, annotation, False, x_range, y_range)


def histogram_svg(
    bins: Sequence[tuple[float, float, int]],
    x_label: str,
    y_label: str = "count",
    title: str = "",
) -> str:
    """Bar chart over (bin_left, bin_right, count) rows; y axis starts at 0."""
    bins = [(float(left), float(right), int(count)) for left, right, count in bins]
    if not bins:
        raise ValueError("no histogram bins to plot")
    x_range = (bins[0][0], bins[-1][1])
    y_range = (0.0, max(count for _, _, count in bins) or 1.0)
    canvas = _Canvas(_ticks(*x_range), _ticks(*y_range))
    canvas.frame_and_grid(title, x_label, y_label)
    color = PALETTE[0]
    for left, right, count in bins:
        if count == 0:
            continue
        x = canvas.sx(left)
        y = canvas.sy(count)
        width = canvas.sx(right) - x
        height = canvas.sy(0.0) - y
        canvas.add(
            f'<rect x="{fmt(x)}" y="{fmt(y)}" width="{fmt(width)}" height="{fmt(height)}" '
            f'fill="{color}" fill-opacity="0.8" stroke="#ffffff" stroke-width="0.5"/>'
        )
    return canvas.render()
