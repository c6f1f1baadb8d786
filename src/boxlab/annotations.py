"""Annotation and prediction file parsing, validation, and on-disk layout.

Two line-oriented text formats are supported, one box per line:

* ground truth:  ``<class> <left> <top> <right> <bottom>``
* predictions:   ``<class> <confidence> <left> <top> <right> <bottom>``

Fields are separated by spaces or tabs; blank lines are ignored. A corpus is
a directory of ``<image_id>.txt`` files plus an optional sidecar manifest
(CSV with header ``image_id,width,height``) carrying image dimensions.
Files are read as UTF-8; a leading byte-order mark is skipped.

An image's boxes are stored only as columns: a tuple of class names and a
read-only ``(n, 4)`` float64 array of (left, top, right, bottom) edges, plus
an ``(n,)`` confidence array for detections, all in file order. The
constructors check every row once; all types are immutable afterwards.
They also check the one coordinate domain, inside which every area, IoU,
moment, cost and weight that boxlab forms is exactly 0 or a normal float.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

EDGE_NAMES = ("left", "top", "right", "bottom")
# The coordinate domain: every coordinate lies in [0, MAX_COORDINATE] and every
# box or image side in [MIN_SIDE, MAX_COORDINATE]. Up to twice MAX_COORDINATE a
# float still resolves half a pixel, which the simulator's restore needs; a
# non-zero difference of two values of at least MIN_SIDE is at least 2**-102,
# so its fourth power is still a normal float.
MAX_COORDINATE = 2.0**50
MIN_SIDE = 2.0**-50
SIDE_RANGE = "positive and finite, in [2**-50, 2**50]"
# Rows per block of a point-by-centroid cost matrix and of report or chart text:
# none is built for more rows at once. A (ROW_BLOCK, 15) float64 block, 120 KiB,
# stays under glibc's default 128 KiB mmap threshold.
ROW_BLOCK = 1024
PREDICTION_FIELDS = ("confidence", *EDGE_NAMES)


class DataError(ValueError):
    """Bad input data or a bad configuration: the base of every boxlab error class."""


class ParseError(DataError):
    """A malformed annotation or prediction line.

    Carries the 1-based line number and a human-readable reason; ``source``
    names the offending file when parsing came from disk.
    """

    def __init__(self, reason: str, line: int, source: str | None = None):
        self.reason = reason
        self.line = line
        self.source = source
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}line {line}: {reason}")

    def with_source(self, source: str) -> "ParseError":
        return ParseError(self.reason, self.line, source)


class DatasetError(DataError):
    """A corpus-level problem: duplicate ids, manifest mismatches, bounds."""


def in_domain(values, low=MIN_SIDE):
    """Whether ``values`` (a float, or an array elementwise) lie in [low, MAX_COORDINATE]."""
    return (values >= low) & (values <= MAX_COORDINATE)


def _box_problem(left, top, right, bottom) -> str | None:
    """Why four edges do not make a box, or None; the first failed check wins."""
    for name, value in zip(EDGE_NAMES, (left, top, right, bottom)):
        if not math.isfinite(value):
            return f"{name} is not a finite number: {value!r}"
    if left < 0 or top < 0:
        return f"negative coordinate in box {(left, top, right, bottom)}"
    if right <= left:
        return f"zero-width box: right {right} <= left {left}"
    if bottom <= top:
        return f"zero-height box: bottom {bottom} <= top {top}"
    sides = (right - left, bottom - top)
    if not (in_domain(max(right, bottom), 0.0) and in_domain(min(sides))):
        return (
            "box outside the coordinate domain (edges at most 2**50, sides at least 2**-50): "
            f"{(left, top, right, bottom)}"
        )
    return None


def _class_name_problem(class_name: str) -> str | None:
    if not class_name:
        return "empty class name"
    if any(c.isspace() for c in class_name):
        return f"class name contains whitespace: {class_name!r}"
    return None


def _confidence_problem(confidence: float) -> str | None:
    if not math.isfinite(confidence) or not 0.0 <= confidence <= 1.0:
        return f"confidence out of range [0, 1]: {confidence!r}"
    return None


class GroundTruthBox(NamedTuple):
    """One ground-truth row of an image; a plain view, checked by the image's constructor."""

    class_name: str
    left: float
    top: float
    right: float
    bottom: float


def frozen(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype``."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def same_fields(a, b):
    """The ``__eq__`` of every record that holds arrays: arrays compare with ``np.array_equal``,
    other fields with ``==`` (numpy's str comparison would drop trailing NULs)."""
    if not isinstance(b, type(a)):
        return NotImplemented
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def _checked_columns(class_names, edges, confidences=None) -> list:
    """Read-only copies of an image's columns, each row checked.

    Raises ValueError for a wrong shape, or naming the first row (1-based)
    whose class name, box or confidence is malformed.
    """
    class_names = tuple(class_names)
    n = len(class_names)
    edges = frozen(edges)
    if edges.size == 0:
        edges = edges.reshape(0, 4)
    if edges.shape != (n, 4):
        raise ValueError(f"edges must have shape ({n}, 4), got {edges.shape}")
    # The sides are formed only from in-domain edges, so they are finite.
    valid = in_domain(edges, 0.0).all() and in_domain(edges[:, 2:] - edges[:, :2]).all()
    columns = [class_names, edges]
    if confidences is not None:
        confidences = frozen(confidences)
        if confidences.shape != (n,):
            raise ValueError(f"confidences must have shape ({n},), got {confidences.shape}")
        valid = valid and ((confidences >= 0.0) & (confidences <= 1.0)).all()
        columns.append(confidences)
    if not valid or any(map(_class_name_problem, set(class_names))):
        for i, (name, row) in enumerate(zip(class_names, edges.tolist())):
            problem = _class_name_problem(name) or _box_problem(*row)
            if problem is None and confidences is not None:
                problem = _confidence_problem(float(confidences[i]))
            if problem:
                raise ValueError(f"box {i + 1}: {problem}")
    return columns


@dataclass(frozen=True, eq=False)
class ImageAnnotations:
    """All ground-truth boxes of one image, with optional pixel dimensions.

    ``class_names`` and ``edges`` hold one entry per box in file order and
    are stored as checked copies; ``edges`` is a read-only ``(n, 4)``
    float64 array of (left, top, right, bottom), in the coordinate domain.
    Set dimensions must lie in [MIN_SIDE, MAX_COORDINATE] and hold every
    box; ``dims_inferred`` needs them set.
    """

    image_id: str
    class_names: tuple[str, ...] = ()
    edges: np.ndarray = ()
    width: float | None = None
    height: float | None = None
    dims_inferred: bool = False

    def __post_init__(self):
        names, edges = _checked_columns(self.class_names, self.edges)
        # A frozen dataclass stores its checked copies through __dict__.
        self.__dict__.update(class_names=names, edges=edges)
        image_id, width, height = self.image_id, self.width, self.height
        if (width is None) != (height is None):
            raise DatasetError(f"image {image_id!r}: width and height must be set together")
        if self.dims_inferred and width is None:
            raise DatasetError(f"image {image_id!r}: inferred dimensions must be set")
        if width is not None:
            if not (in_domain(width) and in_domain(height)):
                raise DatasetError(f"image {image_id!r}: dimensions must be {SIDE_RANGE}")
            outside = np.flatnonzero((edges[:, 2] > width) | (edges[:, 3] > height))
            if outside.size:
                i = int(outside[0])
                raise DatasetError(
                    f"image {image_id!r}: box {i + 1} {tuple(edges[i].tolist())} exceeds "
                    f"image bounds {width}x{height}"
                )

    @property
    def boxes(self) -> tuple[GroundTruthBox, ...]:
        """The rows as named tuples, built on each access.

        No command reads it: it stays for the perfbench harness, which reads
        each row's ``class_name``, as ``tests/test_tracing_contract.py`` pins.
        """
        return tuple(map(GroundTruthBox, self.class_names, *self.edges.T.tolist()))

    def __len__(self) -> int:
        return len(self.class_names)

    __eq__ = same_fields

    def __hash__(self):
        return hash((self.image_id, self.class_names, self.width, self.height))


@dataclass(frozen=True, eq=False)
class ImageDetections:
    """All detections reported for one image, in file order.

    Columns as in ``ImageAnnotations``, plus ``confidences``, a read-only
    ``(n,)`` float64 array.
    """

    image_id: str
    class_names: tuple[str, ...] = ()
    edges: np.ndarray = ()
    confidences: np.ndarray = ()

    def __post_init__(self):
        names, edges, confidences = _checked_columns(self.class_names, self.edges, self.confidences)
        self.__dict__.update(class_names=names, edges=edges, confidences=confidences)

    def __len__(self) -> int:
        return len(self.class_names)

    __eq__ = same_fields

    def __hash__(self):
        return hash((self.image_id, self.class_names))


@dataclass(frozen=True)
class Dataset:
    """A ground-truth corpus keyed by image id: a read-only mapping in sorted-id order."""

    images: Mapping[str, ImageAnnotations] = field(default_factory=dict)

    def __post_init__(self):
        for key, ann in self.images.items():
            if key != ann.image_id:
                raise DatasetError(f"image {ann.image_id!r} is keyed as {key!r}")
        object.__setattr__(self, "images", MappingProxyType(dict(sorted(self.images.items()))))

    @classmethod
    def from_images(cls, images) -> "Dataset":
        by_id: dict[str, ImageAnnotations] = {}
        for ann in images:
            if ann.image_id in by_id:
                raise DatasetError(f"duplicate image id {ann.image_id!r}")
            by_id[ann.image_id] = ann
        return cls(images=by_id)

    def __iter__(self) -> Iterator[ImageAnnotations]:
        return iter(self.images.values())

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_ids(self) -> tuple[str, ...]:
        return tuple(self.images)

    @property
    def total_boxes(self) -> int:
        return sum(len(ann) for ann in self.images.values())


def _parse_number(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {token!r}", line)
    return value


def _first_bad_line(text_content: str, value_names: tuple[str, ...]) -> ParseError | None:
    """The error of the first malformed line, or None when every line is well formed.

    A line's checks run in this order: field count, each number in field
    order, the box's sign and extent, then the confidence range.
    """
    n_fields = 1 + len(value_names)
    for number, raw in enumerate(text_content.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != n_fields:
            return ParseError(f"expected {n_fields} fields, found {len(tokens)}", number)
        try:
            values = [_parse_number(tok, what, number) for tok, what in zip(tokens[1:], value_names)]
        except ParseError as exc:
            return exc
        problem = _box_problem(*values[-4:])
        if problem is None and len(values) == 5:
            problem = _confidence_problem(values[0])
        if problem:
            return ParseError(problem, number)
    return None


def _parse_columns(text_content: str, value_names: tuple[str, ...], build):
    """Split every non-blank line into a class name and a row of numbers, then ``build``.

    ``build(class_names, values)`` receives the names and an
    ``(n, len(value_names))`` array and validates them; any failure is
    reported as the ParseError of the first malformed line. Each name is
    interned, so all rows and files share one ``str`` per distinct class
    name instead of one per row.
    """
    rows = [tokens for tokens in map(str.split, text_content.splitlines()) if tokens]
    width = len(value_names)
    failure = None
    if all(len(tokens) == width + 1 for tokens in rows):
        try:
            numbers = map(float, chain.from_iterable(tokens[1:] for tokens in rows))
            values = np.fromiter(numbers, dtype=np.float64, count=width * len(rows))
            names = tuple(sys.intern(tokens[0]) for tokens in rows)
            return build(names, values.reshape(len(rows), width))
        except ValueError as exc:
            failure = exc
    raise _first_bad_line(text_content, value_names) or failure


def parse_ground_truth(text_content: str, image_id: str) -> ImageAnnotations:
    """Parse ground-truth text into an ImageAnnotations (dimensions unset).

    Each non-blank line must hold exactly 5 fields:
    ``<class> <left> <top> <right> <bottom>``. Raises ParseError with the
    offending line number on any malformed line.
    """
    return _parse_columns(text_content, EDGE_NAMES, partial(ImageAnnotations, image_id))


def _detections(image_id: str, class_names, values: np.ndarray) -> ImageDetections:
    return ImageDetections(image_id, class_names, values[:, 1:], values[:, 0])


def parse_predictions(text_content: str, image_id: str) -> ImageDetections:
    """Parse prediction text: ``<class> <confidence> <left> <top> <right> <bottom>``."""
    return _parse_columns(text_content, PREDICTION_FIELDS, partial(_detections, image_id))


def format_coordinate(value: float) -> str:
    """Lossless text form of a coordinate; integral values render as integers."""
    v = float(value)
    return str(int(v)) if v.is_integer() else repr(v)


def _format_rows(class_names, values: np.ndarray) -> str:
    """The text ``_parse_columns`` reads back as ``class_names`` and ``values``, losslessly."""
    return "".join(
        f"{name} {' '.join(map(format_coordinate, row))}\n"
        for name, row in zip(class_names, values.tolist())
    )


def format_ground_truth(annotations: ImageAnnotations) -> str:
    """Serialize back to the ground-truth text format (round-trips exactly)."""
    return _format_rows(annotations.class_names, annotations.edges)


def format_predictions(detections: ImageDetections) -> str:
    """Serialize back to the prediction text format (round-trips exactly)."""
    rows = np.column_stack((detections.confidences, detections.edges))
    return _format_rows(detections.class_names, rows)


def load_manifest(path: str | Path) -> dict[str, tuple[float, float]]:
    """Read a dimensions manifest: CSV with header ``image_id,width,height``."""
    path = Path(path)
    try:
        text = _read_text(path)
    except ParseError as exc:
        raise DatasetError(str(exc)) from None
    dims: dict[str, tuple[float, float]] = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["image_id", "width", "height"]:
        raise DatasetError(f"{path}: manifest header must be 'image_id,width,height'")
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise DatasetError(f"{path}: row {row_number}: expected 3 columns")
        image_id = row[0].strip()
        if not image_id:
            raise DatasetError(f"{path}: row {row_number}: empty image_id")
        if image_id in dims:
            raise DatasetError(f"{path}: duplicate manifest row for {image_id!r}")
        try:
            width, height = float(row[1]), float(row[2])
        except ValueError:
            raise DatasetError(f"{path}: row {row_number}: non-numeric dimensions") from None
        if not (in_domain(width) and in_domain(height)):
            raise DatasetError(f"{path}: row {row_number}: dimensions must be {SIDE_RANGE}")
        dims[image_id] = (width, height)
    return dims


def _txt_files(directory: str | Path, what: str) -> list[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"not a directory: {directory}")
    files = sorted(directory.glob("*.txt"))
    if not files:
        raise DatasetError(f"no {what} files found in {directory}")
    return files


def _read_text(path: Path) -> str:
    """A file decoded as UTF-8, a leading byte-order mark skipped; ParseError names a bad byte,
    DatasetError a file that cannot be read."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read: {exc.strerror}") from None
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # Everything before the bad byte decodes; number its physical lines as
        # the box parsers do (a manifest's CSV rows cannot be counted here).
        line = len((data[: exc.start].decode("utf-8-sig") + "x").splitlines())
        raise ParseError(f"not UTF-8 text: byte {data[exc.start]:#04x}", line, str(path)) from None


def _inferred_size(edges: np.ndarray) -> tuple[float, float] | None:
    """The size of an image without dimensions: the ceiling of its furthest right and bottom
    edges, or None with no boxes. A NaN or inf edge is left for the constructor to reject."""
    return tuple(np.ceil(edges[:, 2:].max(axis=0)).tolist()) if len(edges) else None


def _parse_file(file: Path, value_names: tuple[str, ...], build):
    """Parse a file, its stem as the image id, with ``build(image_id, class_names, values)``."""
    text = _read_text(file)
    try:
        return _parse_columns(text, value_names, partial(build, file.stem))
    except ParseError as exc:
        raise exc.with_source(str(file)) from None


def load_dataset(directory: str | Path, manifest: str | Path | None = None) -> Dataset:
    """Load a ground-truth corpus from ``<image_id>.txt`` files.

    With a manifest, listed images get explicit dimensions (a manifest row
    for a missing image is an error). Without one, dimensions are inferred
    as the ceiling of the furthest box edge and flagged via ``dims_inferred``;
    images with no boxes keep dimensions unset.
    """
    files = _txt_files(directory, "annotation")
    dims = load_manifest(manifest) if manifest is not None else {}

    def with_dims(image_id: str, class_names, edges: np.ndarray) -> ImageAnnotations:
        if image_id in dims:
            return ImageAnnotations(image_id, class_names, edges, *dims[image_id])
        size = _inferred_size(edges) or (None, None)
        return ImageAnnotations(image_id, class_names, edges, *size, size[0] is not None)

    images = [_parse_file(file, EDGE_NAMES, with_dims) for file in files]
    missing = sorted(set(dims).difference(ann.image_id for ann in images))
    if missing:
        raise DatasetError(f"manifest references missing images: {', '.join(missing)}")
    return Dataset.from_images(images)


def _save_corpus(records: Mapping, directory: str | Path, format_text) -> None:
    """Write ``format_text(record)`` to ``<image_id>.txt`` per record, in id order, through the
    report writer. First, DatasetError for any id that would not load back as its file's stem:
    one that is empty or holds a path separator or a NUL."""
    from .reports import atomic_write  # reports imports ROW_BLOCK from this module

    names = {image_id: f"{image_id}.txt" for image_id in sorted(records)}
    for image_id, name in names.items():
        if "\0" in name or Path(name).name != name or Path(name).stem != image_id:
            raise DatasetError(f"image id {image_id!r} is empty or holds a path separator or a NUL")
    for image_id, name in names.items():
        atomic_write(Path(directory, name), format_text(records[image_id]))


def save_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write one ``<image_id>.txt`` per image plus ``manifest.csv`` of explicit dims.

    Inferred dimensions are not written to the manifest, so a save/load
    round trip preserves the ``dims_inferred`` flag.
    """
    from .reports import write_csv

    _save_corpus(dataset.images, directory, format_ground_truth)
    explicit = [ann for ann in dataset if ann.width is not None and not ann.dims_inferred]
    ids = [ann.image_id for ann in explicit]
    widths = [format_coordinate(ann.width) for ann in explicit]
    heights = [format_coordinate(ann.height) for ann in explicit]
    header = ("image_id", "width", "height")
    write_csv(Path(directory, "manifest.csv"), header, [(ids, widths, heights)])


def load_predictions_dir(directory: str | Path) -> dict[str, ImageDetections]:
    """Load every ``<image_id>.txt`` prediction file in a directory (at least one)."""
    files = _txt_files(directory, "prediction")
    return {file.stem: _parse_file(file, PREDICTION_FIELDS, _detections) for file in files}


def save_predictions(predictions: Mapping[str, ImageDetections], directory: str | Path) -> None:
    """Write one prediction file per image."""
    _save_corpus(predictions, directory, format_predictions)
