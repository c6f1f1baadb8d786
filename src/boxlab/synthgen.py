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

from .annotations import MAX_COORDINATE, MIN_SIDE, DataError, Dataset, ImageAnnotations
from .annotations import ImageDetections, _class_name_problem, _inferred_size, in_domain


class SynthError(DataError):
    """Raised for invalid generator or simulator configurations."""


def _require_finite(config, *names: str) -> None:
    """SynthError for the first named field that is NaN or infinite; range checks do the rest."""
    for name in names:
        value = getattr(config, name)
        if not np.isfinite(value):
            raise SynthError(f"{name} must be finite, got {value}")


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
        if not all(in_domain(side) for side in (self.image_width, self.image_height)):
            raise SynthError("image dimensions must be at least 2**-50 and at most 2**50 px")
        _require_finite(
            self, "count_mean", "count_sd", "line_slope", "line_intercept", "residual_sd"
        )
        if self.count_mean <= 0:
            raise SynthError(f"count_mean must be positive, got {self.count_mean}")
        if self.count_sd < 0 or self.residual_sd < 0:
            raise SynthError("standard deviations must be non-negative")
        low, high = self.width_range
        if not MIN_SIDE <= low <= high:
            raise SynthError(f"width_range must be at least 2**-50 and ordered, got {self.width_range}")
        problem = _class_name_problem(self.class_name)
        if problem:
            raise SynthError(problem)
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
        _require_finite(self, "false_positive_rate", "jitter_sd")
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
    The boxes are placed by the simulator's rule: right and bottom edges
    are clipped to the frame, and every side stays at least MIN_SIDE.
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
        images.append(
            ImageAnnotations(
                f"img_{index:04d}",
                (config.class_name,) * count,
                _placed(
                    np.column_stack((lefts, tops)),
                    np.column_stack((widths, heights)),
                    (config.image_width, config.image_height),
                ),
                width=config.image_width,
                height=config.image_height,
            )
        )
    return Dataset.from_images(images)


def _restored(edges: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Jittered ``(n, 4)`` rows made valid inside their ``(n, 2)`` frames (width, height).

    Each (left, right) and (top, bottom) pair is first clipped to
    ±2 * MAX_COORDINATE, widened to 1 px around its centre when it is
    narrower than MIN_SIDE (inverted included), then shortened to the side
    and moved inside [0, side]. Below 2**52 a float resolves the half-pixel
    steps, and every frame side is at most MAX_COORDINATE, so an edge inside
    the bound is used as it is.
    """
    low = np.clip(edges[:, :2], -2 * MAX_COORDINATE, 2 * MAX_COORDINATE)
    high = np.clip(edges[:, 2:], -2 * MAX_COORDINATE, 2 * MAX_COORDINATE)
    narrow = high - low < MIN_SIDE
    center = (low + high) / 2.0
    low = np.where(narrow, center - 0.5, low)
    high = np.where(narrow, center + 0.5, high)
    span = np.minimum(high - low, frames)
    return _placed(np.minimum(np.maximum(low, 0.0), frames - span), span)


def _placed(low: np.ndarray, span: np.ndarray, frame=np.inf) -> np.ndarray:
    """``(n, 4)`` rows from ``(n, 2)`` (left, top) corners and (width, height) spans.

    Spans lie in [MIN_SIDE, frame side]; the high edges are clipped to
    ``frame`` (width, height). Where rounding or the clip leaves a side
    below MIN_SIDE, the low edge moves down to the smaller of high - span
    and the float below high: both are in [0, high - MIN_SIDE], so the box
    stays in the coordinate domain.
    """
    high = np.minimum(low + span, frame)
    mended = np.minimum(high - span, np.nextafter(high, -np.inf))
    return np.hstack((np.where(high - low < MIN_SIDE, mended, low), high))


def simulate_detector(gt: Dataset, noise: DetectorNoise) -> dict[str, ImageDetections]:
    """Derive noisy predictions from ground truth; deterministic given the seed.

    Each box survives with probability 1 - miss_rate; survivors get one
    Normal offset per edge and a confidence uniform in ``tp_confidence``.
    Poisson(false_positive_rate) spurious detections per image then borrow
    their class and dimensions from a random ground-truth box anywhere in
    the corpus (an all-empty corpus yields no false positives) and land
    uniformly inside the image. Survivors come first, in ground-truth
    order, then the false positives. An image without dimensions is framed
    by the size ``load_dataset`` infers for it, the ceiling of its furthest
    right and bottom edges, so a corpus gives the same detections before
    and after a save and load. Every frame, set or inferred, lies in the
    coordinate domain, so every restored box does too.

    Each image draws from its own substream seeded by (seed, image index),
    in this order: one uniform survival draw per box; then per box, missed
    or not, four standard Normals (its edge offsets, scaled by
    ``jitter_sd``) and one uniform (its confidence); then the Poisson count
    of false positives and, per false positive, its source box, left, top
    and confidence. The arithmetic on the draws is then done on columns for
    the whole corpus at once.
    """
    images = list(gt)
    counts = [len(ann) for ann in images]
    corpus_names = [name for ann in images for name in ann.class_names]
    corpus_edges = np.concatenate([np.empty((0, 4)), *(ann.edges for ann in images)])
    corpus_widths = (corpus_edges[:, 2] - corpus_edges[:, 0]).tolist()
    corpus_heights = (corpus_edges[:, 3] - corpus_edges[:, 1]).tolist()
    fp_low, fp_high = noise.fp_confidence
    survival = np.empty(len(corpus_names))
    normals = np.empty((len(corpus_names), 4))
    uniforms, frames = [], []
    fp_names, fp_corners, fp_sizes, fp_confidences, fp_starts = [], [], [], [], [0]
    start = 0
    for index, ann in enumerate(images):
        rng = np.random.default_rng([noise.seed, index])
        frame = (ann.width, ann.height) if ann.width is not None else _inferred_size(ann.edges)
        frames.append(frame or (0.0, 0.0))
        stop = start + len(ann)
        rng.random(out=survival[start:stop])
        for offsets in normals[start:stop]:
            rng.standard_normal(out=offsets)
            uniforms.append(rng.random())
        start = stop
        spurious = int(rng.poisson(noise.false_positive_rate))
        for _ in range(spurious):
            if not corpus_names or frame is None:
                break
            source = int(rng.integers(len(corpus_names)))
            width = min(corpus_widths[source], frame[0])
            height = min(corpus_heights[source], frame[1])
            left = float(rng.uniform(0.0, frame[0] - width))
            top = float(rng.uniform(0.0, frame[1] - height))
            fp_names.append(corpus_names[source])
            fp_corners.append((left, top))
            fp_sizes.append((width, height))
            fp_confidences.append(float(rng.uniform(fp_low, fp_high)))
        fp_starts.append(len(fp_names))

    # numpy draws normal(0.0, sd) as 0.0 + sd * z and uniform(lo, hi) as
    # lo + (hi - lo) * u, so these are the bits per-box calls would give.
    with np.errstate(over="ignore"):
        offsets = noise.jitter_sd * normals + 0.0
    tp_low, tp_high = noise.tp_confidence
    confidences = tp_low + (tp_high - tp_low) * np.array(uniforms)
    row_frames = np.repeat(np.reshape(frames, (-1, 2)), counts, axis=0)
    jittered = _restored(corpus_edges + offsets, row_frames)
    moved = (offsets != 0.0).any(axis=1)
    edges = np.where(moved[:, None], jittered, corpus_edges)
    kept = np.flatnonzero(survival >= noise.miss_rate)
    kept_starts = np.searchsorted(kept, np.cumsum([0, *counts])).tolist()
    kept_names = [corpus_names[i] for i in kept.tolist()]
    kept_edges, kept_confidences = edges[kept], confidences[kept]
    fp_edges = _placed(np.reshape(fp_corners, (-1, 2)), np.reshape(fp_sizes, (-1, 2)))
    predictions: dict[str, ImageDetections] = {}
    for index, ann in enumerate(images):
        a, b = kept_starts[index], kept_starts[index + 1]
        c, d = fp_starts[index], fp_starts[index + 1]
        predictions[ann.image_id] = ImageDetections(
            ann.image_id,
            kept_names[a:b] + fp_names[c:d],
            np.concatenate((kept_edges[a:b], fp_edges[c:d])),
            np.concatenate((kept_confidences[a:b], fp_confidences[c:d])),
        )
    return predictions
