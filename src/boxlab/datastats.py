"""Exploratory corpus statistics: box counts, coverage, and sanity flags.

Coverage is the raw sum of box areas over the image area; overlapping boxes
are double counted, so values above 1 are possible by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotations import Dataset


class StatsError(ValueError):
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
    """Corpus summary: per-image rows plus count and coverage aggregates.

    Quantiles are (min, q25, median, q75, max) with linear interpolation;
    the standard deviation is the population figure over all images.
    """

    per_image: tuple[ImageStats, ...]
    total_heads: int
    mean_count: float
    sd_count: float
    count_quantiles: Quantiles
    coverage_quantiles: Quantiles

    def __post_init__(self):
        object.__setattr__(self, "per_image", tuple(self.per_image))

    @property
    def image_count(self) -> int:
        return len(self.per_image)


def _quantiles(values: np.ndarray) -> Quantiles:
    q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0], method="linear")
    return (float(q[0]), float(q[1]), float(q[2]), float(q[3]), float(q[4]))


def compute_stats(dataset: Dataset) -> DatasetStats:
    """Compute per-image and corpus-level statistics.

    Every image containing boxes must carry dimensions (explicit or
    inferred); a box-free image contributes zero area and zero coverage.
    """
    if len(dataset) == 0:
        raise StatsError("dataset is empty")
    per_image = []
    for ann in dataset:
        edges = ann.edges
        # A left-to-right Python sum, not ndarray.sum, keeps per_image.csv's last digits.
        total_area = sum(((edges[:, 2] - edges[:, 0]) * (edges[:, 3] - edges[:, 1])).tolist())
        if len(ann) and ann.width is None:
            raise StatsError(f"image {ann.image_id!r} has boxes but no dimensions")
        if not math.isfinite(total_area):
            raise StatsError(f"image {ann.image_id!r}: summed box area overflows")
        if ann.width is None:
            coverage = 0.0
        else:
            image_area = ann.width * ann.height
            if not 0 < image_area < math.inf:
                raise StatsError(
                    f"image {ann.image_id!r}: image area {ann.width}x{ann.height} "
                    "is not a positive finite number"
                )
            coverage = total_area / image_area
        per_image.append(
            ImageStats(
                image_id=ann.image_id,
                head_count=len(ann),
                total_box_area=float(total_area),
                coverage_fraction=float(coverage),
                dims_inferred=ann.dims_inferred,
            )
        )
    counts = np.array([s.head_count for s in per_image], dtype=float)
    coverages = np.array([s.coverage_fraction for s in per_image], dtype=float)
    return DatasetStats(
        per_image=tuple(per_image),
        total_heads=int(counts.sum()),
        mean_count=float(counts.mean()),
        sd_count=float(counts.std()),
        count_quantiles=_quantiles(counts),
        coverage_quantiles=_quantiles(coverages),
    )


def extract_dims(dataset: Dataset) -> np.ndarray:
    """(n, 2) float array of ground-truth box (width, height), in corpus order."""
    edges = np.concatenate([np.empty((0, 4)), *(ann.edges for ann in dataset)])
    return np.column_stack((edges[:, 2] - edges[:, 0], edges[:, 3] - edges[:, 1]))


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
    """Equal-width histogram as (bin_left, bin_right, count) rows."""
    if bins < 1:
        raise StatsError(f"bins must be >= 1, got {bins}")
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise StatsError("cannot histogram an empty sequence")
    counts, edges = np.histogram(data, bins=bins)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    ]
