"""Anchor-box selection, quality diagnostics, and Darknet config emission.

Two selection strategies are provided. ``kmeans_anchors`` is the
conventional clustering search over box dimensions. ``linefit_anchors``
fits a least-squares line of height on width, samples anchors at evenly
spaced width quantiles along that line, optionally adds a small floor
anchor below the smallest sample, and spends the remaining budget in
width regions where the fit residuals vary the most. An anchor set is one
``(k, 2)`` array, ``AnchorSet.dims``, and a Darknet fragment writes it
losslessly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .annotations import (
    MAX_COORDINATE, ROW_BLOCK, SIDE_RANGE, DataError, format_coordinate, frozen, in_domain,
    same_fields,
)
from .datastats import linear_quantiles

KMEANS_MAX_ITERATIONS = 1000
DISTANCES = ("euclidean", "one_minus_iou")
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class AnchorError(DataError):
    """Raised for invalid anchor-selection inputs or configurations."""


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Anchors as a read-only (k, 2) float64 array of (width, height) rows.

    Every value is a side in [2**-50, 2**50], the rows are sorted by area
    ascending and hold no exact duplicates; anything else raises ``AnchorError``.
    """

    dims: np.ndarray

    def __post_init__(self):
        dims = frozen(_dims_array(self.dims, "anchors"))
        if len(dims) == 0:
            raise AnchorError("anchor set is empty")
        areas = dims[:, 0] * dims[:, 1]
        if np.any(areas[:-1] > areas[1:]):
            raise AnchorError("anchors must be sorted by area, ascending")
        if len(set(map(tuple, dims.tolist()))) != len(dims):
            raise AnchorError("anchor set contains exact duplicates")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_dims(cls, dims: Iterable[tuple[float, float]]) -> "AnchorSet":
        """Build from (width, height) pairs: sorts by area, width, height; drops duplicates."""
        points = _dims_array(list(dims), "anchors")
        w, h = points.T
        points = points[np.lexsort((h, w, w * h))]
        return cls(points[np.append(True, np.any(points[1:] != points[:-1], axis=1))])

    def __len__(self) -> int:
        return len(self.dims)

    __eq__ = same_fields

    def pairs(self) -> list[tuple[float, float]]:
        """The rows as a list of (width, height) tuples of floats."""
        return list(map(tuple, self.dims.tolist()))


@dataclass(frozen=True, eq=False)
class CoverageDiagnostic:
    """How well a set of priors covers a collection of box dimensions."""

    mean_best_iou: float
    recall_at_t: float
    threshold_t: float
    per_anchor_assignment_counts: np.ndarray  # read-only intp array, one count per anchor

    def __post_init__(self):
        counts = frozen(self.per_anchor_assignment_counts, np.intp)
        self.__dict__.update(per_anchor_assignment_counts=counts)

    __eq__ = same_fields


# The per-section training parameters boxlab writes; a parsed fragment must match.
DARKNET_SCALARS = {"jitter": 0.3, "ignore_thresh": 0.7, "truth_thresh": 1.0, "random": 1.0}


@dataclass(frozen=True)
class DarknetConfigFragment:
    """The ``[yolo]`` sections of a Darknet config, one per detection layer.

    ``layers`` is the anchor count of each section, smallest areas first.
    ``None`` picks 3,4,6 for 13 anchors, 3,3,3 for 9, and one section
    otherwise; the resolved sizes are stored.
    """

    anchors: AnchorSet
    classes: int = 1
    layers: Sequence[int] | None = None

    def __post_init__(self):
        if self.classes < 1:
            raise AnchorError(f"classes must be >= 1, got {self.classes}")
        n = len(self.anchors)
        auto = {13: (3, 4, 6), 9: (3, 3, 3)}.get(n, (n,))
        sizes = auto if self.layers is None else tuple(int(s) for s in self.layers)
        if any(s < 1 for s in sizes):
            raise AnchorError(f"layer sizes must be positive: {','.join(map(str, sizes))}")
        if sum(sizes) != n:
            raise AnchorError(
                f"layer layout {','.join(map(str, sizes))} sums to {sum(sizes)}, "
                f"but there are {n} anchors"
            )
        object.__setattr__(self, "layers", sizes)

    @property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """The anchor indices of each section: consecutive runs, in order."""
        ends = accumulate(self.layers)
        return tuple(tuple(range(end - size, end)) for size, end in zip(self.layers, ends))


def _dims_array(dims: ArrayLike, what: str = "box dimensions") -> np.ndarray:
    """(width, height) pairs as an (n, 2) float array; AnchorError, naming them ``what``,
    unless every value is a side of the coordinate domain, in [2**-50, 2**50]."""
    try:
        points = np.asarray(dims, dtype=float)
    except (TypeError, ValueError):
        raise AnchorError(f"{what} must be numeric (width, height) pairs") from None
    if points.ndim != 2 or points.shape[1] != 2:
        raise AnchorError(f"{what} must have shape (n, 2), got {points.shape}")
    if not in_domain(points).all():
        raise AnchorError(f"{what} must be {SIDE_RANGE}")
    return points


def centered_iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise centered IoU between (n, 2) and (m, 2) dimension arrays."""
    inter = np.minimum(a[:, None, 0], b[None, :, 0]) * np.minimum(a[:, None, 1], b[None, :, 1])
    union = (a[:, 0] * a[:, 1])[:, None] + (b[:, 0] * b[:, 1])[None, :] - inter
    return inter / union


@dataclass(frozen=True, eq=False)
class KMeansRun:
    """Clustering outcome: read-only (k, 2) centroids, (n,) labels and the objective trace."""

    centroids: np.ndarray
    labels: np.ndarray
    objective_history: tuple[float, ...]

    def __post_init__(self):
        self.__dict__.update(centroids=frozen(self.centroids), labels=frozen(self.labels, np.intp))

    __eq__ = same_fields


def _fold(value: int) -> int:
    value &= _MASK32
    return value ^ value >> 16


def _hasher(const: int, multiplier: int):
    """SeedSequence's 32-bit hash, whose multiplier moves on with every call."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        return _fold(value * const)

    return hashmix


class _SeedStream:
    """The draws of numpy's ``default_rng(seed)`` that seeding makes, bit for bit.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words into the state and
    increment of a PCG64 (XSL-RR 128/64) generator. ``integers`` is Lemire's
    bounded draw, on buffered 32-bit halves below 2**32.
    """

    def __init__(self, seed: int):
        entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(word) for word in (entropy + [0, 0, 0])[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _fold(0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _fold(0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(word))
        words = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
        u = [low | high << 32 for low, high in zip(words[::2], words[1::2])]
        self._inc = (u[2] << 64 | u[3]) << 1 & _MASK128 | 1
        self._state = 0
        self._next64()
        self._state += u[0] << 64 | u[1]
        self._next64()
        self._halves: list[int] = []  # the unused high half of the last 64-bit draw

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        rotation = self._state >> 122
        value = (self._state >> 64 ^ self._state) & _MASK64
        return (value >> rotation | value << (64 - rotation)) & _MASK64

    def _next32(self) -> int:
        if self._halves:
            return self._halves.pop()
        value = self._next64()
        self._halves.append(value >> 32)
        return value & _MASK32

    def integers(self, n: int) -> int:
        """A uniform int in [0, n), as ``Generator.integers(n)`` draws it."""
        if n == 1:
            return 0
        if n == 2**32:  # n itself overflows 32 bits, so numpy returns the draw as is
            return self._next32()
        bits, draw = (32, self._next32) if n < 2**32 else (64, self._next64)
        threshold = (1 << bits) % n
        scaled = draw() * n
        while scaled & ((1 << bits) - 1) < threshold:
            scaled = draw() * n
        return scaled >> bits

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def choice(self, p: np.ndarray) -> int:
        """An index drawn with probabilities ``p``, as ``Generator.choice(len(p), p=p)``."""
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, self.random(), side="right"))


def _kmeans_pp_init(w, h, area, k: int, distance: str, rng: _SeedStream) -> list[int]:
    """Indices of k seed points: the first uniform, each next with weight cost²."""
    index = rng.integers(len(w))
    chosen = [index]
    costs = _pair_costs(w, h, area, w[index], h[index], area[index], distance)
    while len(chosen) < k:
        weights = costs * costs
        total = weights.sum()
        if total == 0:
            raise AnchorError("k exceeds the number of distinct dims")
        index = rng.choice(weights / total)
        chosen.append(index)
        added = _pair_costs(w, h, area, w[index], h[index], area[index], distance)
        costs = np.minimum(costs, added)
    return chosen


def _pair_costs(w, h, area, cw, ch, carea, distance: str) -> np.ndarray:
    """Costs between broadcastable width, height and area columns.

    Squared Euclidean, or 1 - centred IoU with the per-element operations
    of ``centered_iou_matrix``, so the same floats.
    """
    if distance == "euclidean":
        dw = w - cw
        dh = h - ch
        return dw * dw + dh * dh
    inter = np.minimum(w, cw) * np.minimum(h, ch)
    return 1.0 - inter / (area + carea - inter)


def _integer(value, name: str) -> int:
    """``value`` as an int, numpy integers included; AnchorError for anything else."""
    try:
        return operator.index(value)
    except TypeError:
        raise AnchorError(f"{name} must be an integer, got {value!r}") from None


def run_kmeans(
    dims: ArrayLike, k: int, distance: str = "one_minus_iou", seed: int = 0
) -> KMeansRun:
    """Seeded k-means++-style initialization followed by Lloyd iterations.

    ``dims`` is any (n, 2) array-like of (width, height). Seeding samples
    each next centroid with weight cost², where cost is the distance to the
    nearest chosen centroid: (1 - IoU)² under the IoU distance, and d⁴
    under squared Euclidean, not the D² of k-means++. Its draws are those
    of numpy's ``default_rng(seed)``, reproduced inside boxlab so that
    ``anchors`` never imports ``numpy.random`` (about 6 MB of peak RSS) and
    a seed keeps its anchors whatever numpy's ``Generator`` streams become.
    ``k`` >= 1 and ``seed`` >= 0 are integers, numpy integers included.
    Assignment always picks the lowest-index centroid among ties. Centroid
    updates take the cluster mean; under the IoU distance the mean is only a
    heuristic minimizer, so an update that would worsen its cluster cost is
    skipped, keeping the objective non-increasing for both distances.
    The objective is the summed point cost (squared Euclidean, or 1 - IoU).

    The loop is exact, not approximate: it returns the centroids, labels
    and objective history of the plain Lloyd loop bit for bit, while
    skipping most point-centroid costs with Hamerly bounds. The distance d
    is 1 - IoU (the Jaccard distance of two centred rectangles) or the
    square root of the squared-Euclidean cost; both are metrics. Each point
    keeps its exact cost to its own centroid (upper bound u = d to that
    centroid) and a lower bound l on d to every other centroid: the
    second-nearest distance of its last full row, minus the largest
    centroid drift of every update since. Only a point with u < l - margin
    keeps its label unchecked; any other point gets its full row again, so
    ties still go to the lowest index. The margin is 1e-9 times the distance
    scale: 1 for 1 - IoU, the largest dimension for Euclidean. It covers
    float rounding, since one computed distance is off by about 1e-16 of
    that scale and even 1,000 drift subtractions stay far below 1e-9. Costs
    are the same per-element operations as a full cost matrix, taken
    ``ROW_BLOCK`` rows at a time when assigning; when updating, one cluster
    at a time under 1 - IoU, and in place over every point under Euclidean
    distance, where each cluster moves and no member list is needed.
    Cluster means come from ``np.bincount`` (the same sequential sum as a
    mean over the members), and the reject check and the objective sum the
    same costs in point order, so every float matches.
    """
    if distance not in DISTANCES:
        raise AnchorError(f"unknown distance {distance!r}; expected one of {DISTANCES}")
    k = _integer(k, "k")
    if k < 1:
        raise AnchorError(f"k must be >= 1, got {k}")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise AnchorError(f"seed must be >= 0, got {seed}")
    points = _dims_array(dims)
    if len(points) < k:
        raise AnchorError(f"k={k} exceeds the {len(points)} available dims")

    w, h = points.T.copy()
    area = w * h
    centroids = points[_kmeans_pp_init(w, h, area, k, distance, _SeedStream(seed))]
    euclidean = distance == "euclidean"
    # 1 - IoU is already a distance; the Euclidean cost is its square.
    to_distance = np.sqrt if euclidean else np.asarray
    margin = 1e-9 * (float(points.max()) if euclidean else 1.0)
    n = len(points)
    labels = np.zeros(n, dtype=np.intp)
    own = np.zeros(n)
    lower = np.full(n, -np.inf)
    # A stable argsort of narrow integer labels is a radix sort, far faster than on intp.
    group_dtype = np.min_scalar_type(k - 1)
    history: list[float] = []
    for iteration in range(KMEANS_MAX_ITERATIONS):
        # Assignment: a full row only where the bounds leave a closer centroid possible.
        cw, ch = centroids.T
        carea = cw * ch
        stale = np.flatnonzero(~(to_distance(own) < lower - margin))
        moved = False
        for start in range(0, len(stale), ROW_BLOCK):
            rows = stale[start : start + ROW_BLOCK]
            costs = _pair_costs(
                w[rows, None], h[rows, None], area[rows, None], cw, ch, carea, distance
            )
            nearest = np.argmin(costs, axis=1)
            moved = moved or not np.array_equal(nearest, labels[rows])
            picked = np.arange(len(rows)), nearest
            labels[rows] = nearest
            own[rows] = costs[picked]
            costs[picked] = np.inf
            lower[rows] = to_distance(costs.min(axis=1))
        if iteration and not moved:
            break

        # Update: each non-empty cluster moves to its mean, unless under 1 - IoU
        # that raises the cluster's summed cost.
        counts = np.bincount(labels, minlength=k)
        accepted = counts > 0
        candidates = centroids.copy()
        for axis, column in enumerate((w, h)):
            sums = np.bincount(labels, weights=column, minlength=k)
            candidates[accepted, axis] = sums[accepted] / counts[accepted]
        pw, ph = candidates.T
        if euclidean:
            # Every non-empty cluster moves, so each point's cost is to its own
            # candidate: the terms of _pair_costs, formed in place in one gathered
            # column ("clip" lets take write into it unbuffered; labels are in range).
            gathered = pw[labels]
            np.subtract(w, gathered, out=own)
            own *= own
            np.take(ph, labels, out=gathered, mode="clip")
            np.subtract(h, gathered, out=gathered)
            gathered *= gathered
            own += gathered
        else:
            # Each cluster's members in point order, costed against their own candidate.
            parea = pw * ph
            order = np.argsort(labels.astype(group_dtype), kind="stable")
            ends = np.cumsum(counts)
            for j in np.flatnonzero(accepted):
                members = order[ends[j] - counts[j] : ends[j]]
                new = _pair_costs(
                    w[members], h[members], area[members], pw[j], ph[j], parea[j], distance
                )
                if not new.sum() > own[members].sum():
                    own[members] = new
                else:
                    accepted[j] = False
            candidates[~accepted] = centroids[~accepted]
        drift = _pair_costs(cw, ch, cw * ch, pw, ph, pw * ph, distance)
        lower -= to_distance(drift).max()
        centroids = candidates
        history.append(float(own.sum()))
    return KMeansRun(centroids, labels, tuple(history))


def kmeans_anchors(
    dims: ArrayLike, k: int, distance: str = "one_minus_iou", seed: int = 0
) -> AnchorSet:
    """Cluster box dimensions into k anchors (centroids rounded to 2 decimals).

    A centroid that rounds to 0, or two that round to the same anchor, is
    an AnchorError naming the centroids, so the set always holds k anchors.
    """
    run = run_kmeans(dims, k, distance=distance, seed=seed)
    anchors = np.round(run.centroids, 2)
    first_of = {}
    for centroid, rounded in zip(map(tuple, run.centroids.tolist()), map(tuple, anchors.tolist())):
        if 0.0 in rounded:
            raise AnchorError(f"k-means centroid {centroid} rounds to 0 at 2 decimals")
        if rounded in first_of:
            raise AnchorError(f"k-means centroids {first_of[rounded]} and {centroid} "
                              f"round to the same anchor at 2 decimals")
        first_of[rounded] = centroid
    return AnchorSet.from_dims(anchors)


def _round_anchor(width: float, height: float) -> tuple[float, float]:
    # Whole-pixel anchors in [1, 2**50] px, so any fitted height gives a valid one.
    return tuple(min(MAX_COORDINATE, max(1.0, float(round(v)))) for v in (width, height))


def linefit_anchors(
    dims: ArrayLike,
    n_line: int = 9,
    floor: tuple[float, float] | None = (10.0, 10.0),
    n_total: int = 13,
    variance_bins: int = 10,
) -> AnchorSet:
    """Sample anchors along a least-squares height-on-width line.

    ``n_line`` anchors sit at the interior width quantiles i/(n_line+1) of
    the fitted line. The ``floor`` (width, height) pair, or ``None`` for
    none, is checked like any anchor and added when its area falls below
    the smallest line sample, covering the extreme lower tail. The budget up
    to ``n_total`` is then spent one anchor per width bin, bins ranked by
    residual variance, each placed one residual standard deviation off the
    line with alternating sign. Anchors are rounded to whole pixels; exact
    duplicates collapse, so fewer than ``n_total`` anchors may come back.
    """
    if n_line < 1:
        raise AnchorError(f"n_line must be >= 1, got {n_line}")
    if n_total < n_line + 1:
        raise AnchorError(f"n_total must be >= n_line + 1, got {n_total}")
    if variance_bins < 1:
        raise AnchorError(f"variance_bins must be >= 1, got {variance_bins}")
    floor_dims = None if floor is None else _dims_array([floor], "floor")
    widths, heights = _dims_array(dims).T.copy()
    if len(widths) < 2 or widths.min() == widths.max():
        raise AnchorError(
            "all box widths are equal; the line fit is degenerate, use kmeans_anchors instead"
        )

    w_mean = widths.mean()
    h_mean = heights.mean()
    dw = widths - w_mean
    slope = float(np.sum(dw * (heights - h_mean)) / np.sum(dw * dw))
    intercept = float(h_mean - slope * w_mean)

    quantiles = [i / (n_line + 1) for i in range(1, n_line + 1)]
    sample_widths = linear_quantiles(widths, quantiles)
    anchors = [_round_anchor(w, slope * w + intercept) for w in sample_widths]

    if floor_dims is not None and floor_dims.prod() < min(w * h for w, h in anchors):
        anchors.append(floor_dims[0])

    extras = n_total - len(anchors)
    if extras > 0:
        residuals = heights - (slope * widths + intercept)
        edges = linear_quantiles(widths, np.linspace(0.0, 1.0, variance_bins + 1))
        bin_index = np.clip(
            np.searchsorted(edges[1:-1], widths, side="right"), 0, variance_bins - 1
        )
        # Each bin's members in point order, from one stable (radix) sort of narrow labels.
        order = np.argsort(bin_index.astype(np.min_scalar_type(variance_bins - 1)), kind="stable")
        counts = np.bincount(bin_index)
        groups = [g for g in np.split(order, np.cumsum(counts)[:-1]) if len(g)]
        # Noisiest bins first; the stable sort keeps equal variances in bin order.
        ranked = sorted(groups, key=lambda members: -residuals[members].var())
        for i in range(extras):
            members = ranked[i % len(ranked)]
            w_extra = float(widths[members].mean())
            offset = (-1) ** i * float(residuals[members].std())
            anchors.append(_round_anchor(w_extra, slope * w_extra + intercept + offset))

    return AnchorSet.from_dims(anchors)


def coverage(
    dims: ArrayLike, anchors: AnchorSet, threshold_t: float = 0.5
) -> CoverageDiagnostic:
    """Assign each box to its best centered-IoU anchor and summarize the fit.

    Ties go to the lower anchor index. ``recall_at_t`` is the fraction of
    boxes whose best IoU reaches the threshold, which must lie in (0, 1].
    The IoU matrix is computed ``ROW_BLOCK`` boxes at a time.
    """
    if not 0.0 < threshold_t <= 1.0:
        raise AnchorError(f"threshold_t must be in (0, 1], got {threshold_t}")
    points = _dims_array(dims)
    if len(points) == 0:
        raise AnchorError("no box dimensions to cover")
    best_index = np.empty(len(points), dtype=np.intp)
    best_iou = np.empty(len(points))
    for start in range(0, len(points), ROW_BLOCK):
        matrix = centered_iou_matrix(points[start : start + ROW_BLOCK], anchors.dims)
        block = slice(start, start + len(matrix))
        best_index[block] = np.argmax(matrix, axis=1)
        best_iou[block] = matrix[np.arange(len(matrix)), best_index[block]]
    counts = np.bincount(best_index, minlength=len(anchors))
    return CoverageDiagnostic(
        mean_best_iou=float(best_iou.mean()),
        recall_at_t=float((best_iou >= threshold_t).mean()),
        threshold_t=float(threshold_t),
        per_anchor_assignment_counts=counts,
    )


def emit_darknet_fragment(config: DarknetConfigFragment) -> str:
    """Render the detection-layer config sections as deterministic text.

    One ``[yolo]`` section per layer; all sections share the anchor list,
    the class count and ``DARKNET_SCALARS``. Anchors are written with
    ``format_coordinate``: integral values as integers, others losslessly.
    """
    anchor_text = ", ".join(
        f"{format_coordinate(w)},{format_coordinate(h)}" for w, h in config.anchors.dims.tolist()
    )
    shared = [f"anchors = {anchor_text}", f"classes = {config.classes}"]
    shared += [f"num = {len(config.anchors)}"]
    shared += [f"{key} = {value!r}" for key, value in DARKNET_SCALARS.items()]
    return "\n".join(
        "\n".join(["[yolo]", f"mask = {','.join(map(str, mask))}", *shared]) + "\n"
        for mask in config.masks
    )


def _fragment_number(key: str, text: str, kind: type = float):
    try:
        return kind(text)
    except ValueError:
        raise AnchorError(f"fragment key {key!r} holds a non-number: {text!r}") from None


def parse_darknet_fragment(text: str) -> DarknetConfigFragment:
    """Parse text produced by emit_darknet_fragment back into a config.

    Every section needs a ``mask``, and the masks must split the anchors
    into consecutive runs in order. The shared keys must agree across
    sections, and the scalars must equal ``DARKNET_SCALARS``.
    """
    sections: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "[yolo]":
            current = {}
            sections.append(current)
            continue
        if current is None or "=" not in line:
            raise AnchorError(f"unexpected fragment line: {line!r}")
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    if not sections:
        raise AnchorError("fragment contains no [yolo] section")

    first = sections[0]
    for key in ("anchors", "classes", "num", *DARKNET_SCALARS):
        if key not in first:
            raise AnchorError(f"fragment is missing key {key!r}")
        if any(section.get(key) != first[key] for section in sections):
            raise AnchorError(f"sections disagree on {key!r}")
    for key, expected in DARKNET_SCALARS.items():
        if _fragment_number(key, first[key]) != expected:
            raise AnchorError(f"{key} = {first[key]}, but boxlab writes {expected!r}")

    numbers = first["anchors"].replace(" ", "").split(",")
    values = [_fragment_number("anchors", v) for v in numbers if v]
    if len(values) % 2 != 0:
        raise AnchorError("anchor list has an odd number of values")
    pairs = [(values[i], values[i + 1]) for i in range(0, len(values), 2)]
    if any("mask" not in section for section in sections):
        raise AnchorError("a [yolo] section has no 'mask'")
    masks = [[_fragment_number("mask", i, int) for i in s["mask"].split(",")] for s in sections]
    if [i for mask in masks for i in mask] != list(range(len(pairs))):
        raise AnchorError("masks must split the anchors into consecutive runs, in order")
    num = _fragment_number("num", first["num"], int)
    if num != len(pairs):
        raise AnchorError(f"num = {num} does not match {len(pairs)} anchors in the fragment")
    return DarknetConfigFragment(
        anchors=AnchorSet(pairs),
        classes=_fragment_number("classes", first["classes"], int),
        layers=[len(mask) for mask in masks],
    )
