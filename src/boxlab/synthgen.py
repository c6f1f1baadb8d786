"""Synthetic annotation corpora and a noisy detector simulator.

The generator produces ground truth whose shape mirrors a field-counting
corpus: per-image box counts from a truncated Normal, widths uniform over a
range, heights following a line in width plus Normal residuals, positions
uniform with every box fully inside the image. The simulator degrades that
ground truth into predictions with misses, per-edge jitter, and Poisson
false positives. Together they provide an end-to-end oracle: with zero
noise the evaluation metrics must come out perfect.

Each image uses its own random substream seeded by (seed, image index), so
generation order (or parallelism) cannot change the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annotations import Dataset, ImageAnnotations, ImageDetections


class SynthError(ValueError):
    """Raised for invalid generator or simulator configurations."""


# Up to twice this side, floats still resolve half a pixel, which box edges need.
MAX_IMAGE_SIDE = 2.0**50


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the ground-truth generator."""

    n_images: int
    image_width: float = 1200.0
    image_height: float = 1200.0
    count_mean: float = 103.0
    count_sd: float = 25.0
    width_range: tuple[float, float] = (8.0, 90.0)
    line_slope: float = 1.0
    line_intercept: float = 0.0
    residual_sd: float = 3.0
    class_name: str = "object"
    seed: int = 0

    def __post_init__(self):
        if self.n_images < 1:
            raise SynthError(f"n_images must be >= 1, got {self.n_images}")
        if self.seed < 0:
            raise SynthError(f"seed must be >= 0, got {self.seed}")
        if not all(0 < side <= MAX_IMAGE_SIDE for side in (self.image_width, self.image_height)):
            raise SynthError("image dimensions must be positive and at most 2**50 px")
        if self.count_mean <= 0:
            raise SynthError(f"count_mean must be positive, got {self.count_mean}")
        if self.count_sd < 0 or self.residual_sd < 0:
            raise SynthError("standard deviations must be non-negative")
        low, high = self.width_range
        if not 0 < low <= high:
            raise SynthError(f"width_range must be positive and ordered, got {self.width_range}")
        if not self.class_name or any(c.isspace() for c in self.class_name):
            raise SynthError(f"invalid class name {self.class_name!r}")
        tallest = max(self.line_slope * low, self.line_slope * high) + self.line_intercept
        if high > self.image_width or max(tallest, 1.0) > self.image_height:
            raise SynthError(
                f"image {self.image_width}x{self.image_height} is too small "
                f"to place the largest generated box"
            )


@dataclass(frozen=True)
class DetectorNoise:
    """Degradation model for the detector simulator."""

    miss_rate: float = 0.0
    false_positive_rate: float = 0.0
    jitter_sd: float = 0.0
    tp_confidence: tuple[float, float] = (0.5, 1.0)
    fp_confidence: tuple[float, float] = (0.05, 0.5)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.miss_rate <= 1.0:
            raise SynthError(f"miss_rate must be in [0, 1], got {self.miss_rate}")
        if self.false_positive_rate < 0:
            raise SynthError(f"false_positive_rate must be >= 0, got {self.false_positive_rate}")
        if self.jitter_sd < 0:
            raise SynthError(f"jitter_sd must be >= 0, got {self.jitter_sd}")
        if self.seed < 0:
            raise SynthError(f"seed must be >= 0, got {self.seed}")
        for name, (low, high) in (
            ("tp_confidence", self.tp_confidence),
            ("fp_confidence", self.fp_confidence),
        ):
            if not 0.0 <= low <= high <= 1.0:
                raise SynthError(f"{name} must be an ordered range within [0, 1]")


def generate_dataset(config: SynthConfig) -> Dataset:
    """Generate a ground-truth corpus; deterministic given the config.

    Per image, in stream order: one Normal draw for the count (rounded,
    negatives truncated to zero), then widths, height residuals, left
    positions, top positions. Heights are clamped to [1, image_height].
    """
    low, high = config.width_range
    images = []
    for index in range(config.n_images):
        rng = np.random.default_rng([config.seed, index])
        count = max(0, round(float(rng.normal(config.count_mean, config.count_sd))))
        widths = rng.uniform(low, high, count)
        heights = (
            config.line_slope * widths
            + config.line_intercept
            + rng.normal(0.0, config.residual_sd, count)
        )
        heights = np.clip(heights, 1.0, config.image_height)
        lefts = rng.uniform(0.0, config.image_width - widths)
        tops = rng.uniform(0.0, config.image_height - heights)
        rights = np.minimum(lefts + widths, config.image_width)
        bottoms = np.minimum(tops + heights, config.image_height)
        images.append(
            ImageAnnotations(
                f"img_{index:04d}",
                (config.class_name,) * count,
                np.column_stack((lefts, tops, rights, bottoms)),
                width=config.image_width,
                height=config.image_height,
            )
        )
    return Dataset.from_images(images)


def _frame(ann: ImageAnnotations) -> tuple[float, float] | None:
    if ann.width is not None:
        return (ann.width, ann.height)
    if len(ann):
        return (float(ann.edges[:, 2].max()), float(ann.edges[:, 3].max()))
    return None


def _jittered(
    edges: list[float], offsets: np.ndarray, frame: tuple[float, float]
) -> list[float]:
    left, top, right, bottom = (e + o for e, o in zip(edges, offsets.tolist()))
    width, height = frame
    left, right = _valid_span(left, right, width)
    top, bottom = _valid_span(top, bottom, height)
    return [left, top, right, bottom]


def _valid_span(low: float, high: float, limit: float) -> tuple[float, float]:
    """Restore a jittered edge pair: inside [0, limit], at least 1px when inverted.

    Edges beyond twice the larger of ``limit`` and MAX_IMAGE_SIDE are first
    clipped to that bound. Below 2**52 a float resolves the half-pixel
    steps, so the restore works for any offset in a frame that synth can
    make, and an edge inside the bound is used as it is.
    """
    bound = 2 * max(limit, MAX_IMAGE_SIDE)
    if not (-bound <= low <= bound and -bound <= high <= bound):
        low, high = (min(max(edge, -bound), bound) for edge in (low, high))
    if high <= low:
        center = (low + high) / 2.0
        low, high = center - 0.5, center + 0.5
    span = min(high - low, limit)
    low = min(max(low, 0.0), limit - span)
    return low, low + span


def simulate_detector(gt: Dataset, noise: DetectorNoise) -> dict[str, ImageDetections]:
    """Derive noisy predictions from ground truth; deterministic given the seed.

    Each box survives with probability 1 - miss_rate; survivors get one
    Normal offset per edge and a confidence uniform in ``tp_confidence``.
    Poisson(false_positive_rate) spurious detections per image then borrow
    their class and dimensions from a random ground-truth box anywhere in
    the corpus (an all-empty corpus yields no false positives) and land
    uniformly inside the image. Survivors come first, in ground-truth
    order, then the false positives.
    """
    corpus_names = [name for ann in gt for name in ann.class_names]
    corpus_edges = np.concatenate([np.empty((0, 4)), *(ann.edges for ann in gt)])
    corpus_widths = (corpus_edges[:, 2] - corpus_edges[:, 0]).tolist()
    corpus_heights = (corpus_edges[:, 3] - corpus_edges[:, 1]).tolist()
    tp_low, tp_high = noise.tp_confidence
    fp_low, fp_high = noise.fp_confidence
    predictions: dict[str, ImageDetections] = {}
    for index, ann in enumerate(gt):
        rng = np.random.default_rng([noise.seed, index])
        frame = _frame(ann)
        names, rows, confidences = [], [], []
        survival = rng.random(len(ann))
        for name, row, draw in zip(ann.class_names, ann.edges.tolist(), survival):
            offsets = rng.normal(0.0, noise.jitter_sd, 4)
            confidence = float(rng.uniform(tp_low, tp_high))
            if draw < noise.miss_rate:
                continue
            if np.any(offsets != 0.0):
                row = _jittered(row, offsets, frame)
            names.append(name)
            rows.append(row)
            confidences.append(confidence)
        spurious = int(rng.poisson(noise.false_positive_rate))
        for _ in range(spurious):
            if not corpus_names or frame is None:
                break
            source = int(rng.integers(len(corpus_names)))
            width = min(corpus_widths[source], frame[0])
            height = min(corpus_heights[source], frame[1])
            left = float(rng.uniform(0.0, frame[0] - width))
            top = float(rng.uniform(0.0, frame[1] - height))
            names.append(corpus_names[source])
            rows.append([left, top, left + width, top + height])
            confidences.append(float(rng.uniform(fp_low, fp_high)))
        predictions[ann.image_id] = ImageDetections(ann.image_id, names, rows, confidences)
    return predictions
