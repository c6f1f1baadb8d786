"""Exploratory corpus statistics: box counts, coverage, and sanity flags.

Coverage is the raw sum of box areas over the image area; overlapping boxes
are double counted, so values above 1 are possible by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annotations import DataError, Dataset


class StatsError(DataError):
    """Raised when statistics are requested for an unusable dataset."""


@dataclass(frozen=True)
class ImageStats:
    """Per-image head count and coverage figures."""

    image_id: str
    head_count: int
    total_box_area: float
    coverage_fraction: float
    dims_inferred: bool


Quantiles = tuple[float, float, float, float, float]


@dataclass(frozen=True)
class DatasetStats:
    """Corpus summary: per-image rows, and the count and coverage aggregates computed from them.

    An empty ``per_image`` is a StatsError. Quantiles are (min, q25, median, q75,
    max), linearly interpolated; the standard deviation is the population figure.
    """

    per_image: tuple[ImageStats, ...]
    total_heads: int = field(init=False)
    mean_count: float = field(init=False)
    sd_count: float = field(init=False)
    count_quantiles: Quantiles = field(init=False)
    coverage_quantiles: Quantiles = field(init=False)

    def __post_init__(self):
        per_image = tuple(self.per_image)
        if not per_image:
            raise StatsError("dataset is empty")
        counts = np.array([s.head_count for s in per_image], dtype=float)
        coverages = np.array([s.coverage_fraction for s in per_image], dtype=float)
        self.__dict__.update(per_image=per_image, total_heads=int(counts.sum()),
                             mean_count=float(counts.mean()), sd_count=float(counts.std()),
                             count_quantiles=_quantiles(counts),
                             coverage_quantiles=_quantiles(coverages))

    @property
    def image_count(self) -> int:
        return len(self.per_image)


def linear_quantiles(values: np.ndarray, q) -> np.ndarray:
    """``np.quantile(values, q, method="linear")`` of a 1-D array of finite floats.

    The same floats, bit for bit, from numpy's own steps: the virtual index
    (n - 1) * q, its floor and weight t (from index n - 1 on, numpy takes the
    last value twice, with t = index + 1), and numpy's lerp with its
    ``t >= 0.5`` form ``b - (b - a) * (1 - t)``. Only the sign of a zero can
    differ, where 0.0 and -0.0 tie. ``np.quantile`` would import ``numpy.ma``.
    """
    ordered = np.sort(values)
    position = (len(ordered) - 1) * np.asarray(q, dtype=np.float64)
    below = np.floor(position)
    last = position >= len(ordered) - 1
    below[last] = -1
    at = below.astype(np.intp)
    lower, upper = ordered[at], ordered[np.where(last, -1, at + 1)]
    t = position - below
    step = upper - lower
    return np.where(t >= 0.5, upper - step * (1 - t), lower + step * t)


def _quantiles(values: np.ndarray) -> Quantiles:
    return tuple(linear_quantiles(values, [0.0, 0.25, 0.5, 0.75, 1.0]).tolist())


def compute_stats(dataset: Dataset) -> DatasetStats:
    """Compute per-image statistics; ``DatasetStats`` derives the corpus-level ones.

    Every image containing boxes must carry dimensions (explicit or
    inferred); a box-free image contributes zero area and zero coverage.
    """
    per_image = []
    for ann in dataset:
        edges = ann.edges
        # A left-to-right Python sum, not ndarray.sum, keeps per_image.csv's last digits.
        total_area = sum(((edges[:, 2] - edges[:, 0]) * (edges[:, 3] - edges[:, 1])).tolist())
        if len(ann) and ann.width is None:
            raise StatsError(f"image {ann.image_id!r} has boxes but no dimensions")
        coverage = 0.0 if ann.width is None else total_area / (ann.width * ann.height)
        per_image.append(ImageStats(ann.image_id, len(ann), float(total_area), float(coverage),
                                    ann.dims_inferred))
    return DatasetStats(tuple(per_image))


def extract_dims(dataset: Dataset) -> np.ndarray:
    """(n, 2) float array of ground-truth box (width, height), in corpus order, image by image."""
    dims = np.empty((sum(map(len, dataset)), 2))
    start = 0
    for ann in dataset:
        np.subtract(ann.edges[:, 2:], ann.edges[:, :2], out=dims[start : start + len(ann)])
        start += len(ann)
    return dims


def flag_outliers(
    stats: DatasetStats, min_count: int = 3, min_coverage: float = 0.05
) -> list[tuple[str, str]]:
    """Flag images whose head count or coverage falls below sanity bounds.

    Both comparisons are strict, so an image exactly at a bound is kept.
    An image violating both rules appears once per rule.
    """
    flags = []
    for s in stats.per_image:
        if s.head_count < min_count:
            flags.append((s.image_id, f"only {s.head_count} heads, below minimum {min_count}"))
        if s.coverage_fraction < min_coverage:
            flags.append(
                (
                    s.image_id,
                    f"coverage {100 * s.coverage_fraction:.1f}% below {100 * min_coverage:.1f}%",
                )
            )
    return flags


def histogram(values, bins: int = 20) -> list[tuple[float, float, int]]:
    """Equal-width histogram as (bin_left, bin_right, count) rows over the data's range.

    A range too narrow for ``bins`` distinct edges is widened by 0.5 each way, as numpy
    widens an empty one."""
    if bins < 1:
        raise StatsError(f"bins must be >= 1, got {bins}")
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise StatsError("cannot histogram an empty sequence")
    low, high = float(data.min()), float(data.max())
    if np.any(np.diff(np.linspace(low, high, bins + 1)) <= 0):
        low, high = low - 0.5, high + 0.5
    counts, edges = np.histogram(data, bins=bins, range=(low, high))
    return list(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
