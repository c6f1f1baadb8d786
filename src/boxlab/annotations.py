"""Annotation and prediction file parsing, validation, and on-disk layout.

Two line-oriented text formats are supported, one box per line:

* ground truth:  ``<class> <left> <top> <right> <bottom>``
* predictions:   ``<class> <confidence> <left> <top> <right> <bottom>``

Fields are separated by spaces or tabs; blank lines are ignored. A corpus is
a directory of ``<image_id>.txt`` files plus an optional sidecar manifest
(CSV with header ``image_id,width,height``) carrying image dimensions.
Files are read as UTF-8; a leading byte-order mark is skipped.
All types are immutable after construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping


class ParseError(ValueError):
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


class DatasetError(ValueError):
    """A corpus-level problem: duplicate ids, manifest mismatches, bounds."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle in pixel coordinates, edges as continuous values."""

    left: float
    top: float
    right: float
    bottom: float

    def __post_init__(self):
        for name in ("left", "top", "right", "bottom"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} is not a finite number: {v!r}")
        if self.left < 0 or self.top < 0:
            raise ValueError(f"negative coordinate in box {self.as_tuple()}")
        if self.right <= self.left:
            raise ValueError(f"zero-width box: right {self.right} <= left {self.left}")
        if self.bottom <= self.top:
            raise ValueError(f"zero-height box: bottom {self.bottom} <= top {self.top}")

    @property
    def width(self) -> float:
        return self.right - self.left

    @property
    def height(self) -> float:
        return self.bottom - self.top

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.left, self.top, self.right, self.bottom)


@dataclass(frozen=True)
class GroundTruthBox:
    """A labeled ground-truth box."""

    class_name: str
    box: BoundingBox

    def __post_init__(self):
        if not self.class_name:
            raise ValueError("empty class name")
        if any(c.isspace() for c in self.class_name):
            raise ValueError(f"class name contains whitespace: {self.class_name!r}")


@dataclass(frozen=True)
class Detection:
    """A predicted box with a confidence score."""

    class_name: str
    confidence: float
    box: BoundingBox

    def __post_init__(self):
        if not self.class_name:
            raise ValueError("empty class name")
        if any(c.isspace() for c in self.class_name):
            raise ValueError(f"class name contains whitespace: {self.class_name!r}")
        if not math.isfinite(self.confidence) or not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of range [0, 1]: {self.confidence!r}")


@dataclass(frozen=True)
class ImageAnnotations:
    """All ground-truth boxes of one image, with optional pixel dimensions."""

    image_id: str
    boxes: tuple[GroundTruthBox, ...]
    width: float | None = None
    height: float | None = None
    dims_inferred: bool = False

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if (self.width is None) != (self.height is None):
            raise DatasetError(f"image {self.image_id!r}: width and height must be set together")
        if self.width is not None:
            if self.width <= 0 or self.height <= 0:
                raise DatasetError(f"image {self.image_id!r}: non-positive dimensions")
            for i, gt in enumerate(self.boxes):
                if gt.box.right > self.width or gt.box.bottom > self.height:
                    raise DatasetError(
                        f"image {self.image_id!r}: box {i + 1} {gt.box.as_tuple()} exceeds "
                        f"image bounds {self.width}x{self.height}"
                    )

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class ImageDetections:
    """All detections reported for one image, in file order."""

    image_id: str
    detections: tuple[Detection, ...]

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))

    def __len__(self) -> int:
        return len(self.detections)


@dataclass(frozen=True)
class Dataset:
    """A ground-truth corpus keyed by image id; iteration is sorted by id."""

    images: Mapping[str, ImageAnnotations] = field(default_factory=dict)

    @classmethod
    def from_images(cls, images) -> "Dataset":
        by_id: dict[str, ImageAnnotations] = {}
        for ann in images:
            if ann.image_id in by_id:
                raise DatasetError(f"duplicate image id {ann.image_id!r}")
            by_id[ann.image_id] = ann
        return cls(images=dict(sorted(by_id.items())))

    def __iter__(self) -> Iterator[ImageAnnotations]:
        for image_id in sorted(self.images):
            yield self.images[image_id]

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.images))

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


def _parse_box(tokens: list[str], line: int) -> BoundingBox:
    names = ("left", "top", "right", "bottom")
    coords = [_parse_number(tok, name, line) for tok, name in zip(tokens, names)]
    try:
        return BoundingBox(*coords)
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield number, line


def parse_ground_truth(text_content: str, image_id: str) -> ImageAnnotations:
    """Parse ground-truth text into an ImageAnnotations (dimensions unset).

    Each non-blank line must hold exactly 5 fields:
    ``<class> <left> <top> <right> <bottom>``. Raises ParseError with the
    offending line number on any malformed line.
    """
    boxes = []
    for number, line in _content_lines(text_content):
        tokens = line.split()
        if len(tokens) != 5:
            raise ParseError(f"expected 5 fields, found {len(tokens)}", number)
        box = _parse_box(tokens[1:], number)
        try:
            boxes.append(GroundTruthBox(class_name=tokens[0], box=box))
        except ValueError as exc:
            raise ParseError(str(exc), number) from None
    return ImageAnnotations(image_id=image_id, boxes=tuple(boxes))


def parse_predictions(text_content: str, image_id: str) -> ImageDetections:
    """Parse prediction text: ``<class> <confidence> <left> <top> <right> <bottom>``."""
    detections = []
    for number, line in _content_lines(text_content):
        tokens = line.split()
        if len(tokens) != 6:
            raise ParseError(f"expected 6 fields, found {len(tokens)}", number)
        confidence = _parse_number(tokens[1], "confidence", number)
        box = _parse_box(tokens[2:], number)
        try:
            detections.append(Detection(class_name=tokens[0], confidence=confidence, box=box))
        except ValueError as exc:
            raise ParseError(str(exc), number) from None
    return ImageDetections(image_id=image_id, detections=tuple(detections))


def format_coordinate(value: float) -> str:
    """Lossless text form of a coordinate; integral values render as integers."""
    v = float(value)
    return str(int(v)) if v.is_integer() else repr(v)


def format_ground_truth(annotations: ImageAnnotations) -> str:
    """Serialize back to the ground-truth text format (round-trips exactly)."""
    lines = []
    for gt in annotations.boxes:
        coords = " ".join(format_coordinate(c) for c in gt.box.as_tuple())
        lines.append(f"{gt.class_name} {coords}\n")
    return "".join(lines)


def format_predictions(detections: ImageDetections) -> str:
    """Serialize back to the prediction text format (round-trips exactly)."""
    lines = []
    for det in detections.detections:
        coords = " ".join(format_coordinate(c) for c in det.box.as_tuple())
        lines.append(f"{det.class_name} {format_coordinate(det.confidence)} {coords}\n")
    return "".join(lines)


def load_manifest(path: str | Path) -> dict[str, tuple[float, float]]:
    """Read a dimensions manifest: CSV with header ``image_id,width,height``."""
    path = Path(path)
    dims: dict[str, tuple[float, float]] = {}
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["image_id", "width", "height"]:
            raise DatasetError(f"{path}: manifest header must be 'image_id,width,height'")
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise DatasetError(f"{path}: row {row_number}: expected 3 columns")
            image_id = row[0].strip()
            if image_id in dims:
                raise DatasetError(f"{path}: duplicate manifest row for {image_id!r}")
            try:
                width, height = float(row[1]), float(row[2])
            except ValueError:
                raise DatasetError(f"{path}: row {row_number}: non-numeric dimensions") from None
            if not (math.isfinite(width) and math.isfinite(height)) or width <= 0 or height <= 0:
                raise DatasetError(f"{path}: row {row_number}: dimensions must be positive")
            dims[image_id] = (width, height)
    return dims


def _inferred_dims(boxes: tuple[GroundTruthBox, ...]) -> tuple[float, float] | None:
    if not boxes:
        return None
    width = math.ceil(max(gt.box.right for gt in boxes))
    height = math.ceil(max(gt.box.bottom for gt in boxes))
    return (float(width), float(height))


def _txt_files(directory: str | Path, what: str) -> list[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"not a directory: {directory}")
    files = sorted(directory.glob("*.txt"))
    if not files:
        raise DatasetError(f"no {what} files found in {directory}")
    return files


def _parse_file(file: Path, parse):
    try:
        return parse(file.read_text(encoding="utf-8-sig"), file.stem)
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
    images = []
    seen = set()
    for file in files:
        image_id = file.stem
        seen.add(image_id)
        parsed = _parse_file(file, parse_ground_truth)
        if image_id in dims:
            width, height = dims[image_id]
            images.append(
                ImageAnnotations(image_id, parsed.boxes, width, height, dims_inferred=False)
            )
        else:
            inferred = _inferred_dims(parsed.boxes)
            if inferred is None:
                images.append(parsed)
            else:
                images.append(
                    ImageAnnotations(image_id, parsed.boxes, *inferred, dims_inferred=True)
                )

    missing = sorted(set(dims) - seen)
    if missing:
        raise DatasetError(f"manifest references missing images: {', '.join(missing)}")
    return Dataset.from_images(images)


def save_dataset(
    dataset: Dataset, directory: str | Path, manifest_name: str | None = "manifest.csv"
) -> None:
    """Write one ``<image_id>.txt`` per image plus a manifest of explicit dims.

    Inferred dimensions are not written to the manifest, so a save/load
    round trip preserves the ``dims_inferred`` flag.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for ann in dataset:
        path = directory / f"{ann.image_id}.txt"
        path.write_text(format_ground_truth(ann), encoding="utf-8", newline="\n")
    if manifest_name is None:
        return
    rows = [
        (ann.image_id, ann.width, ann.height)
        for ann in dataset
        if ann.width is not None and not ann.dims_inferred
    ]
    with (directory / manifest_name).open("w", newline="\n", encoding="utf-8") as fh:
        fh.write("image_id,width,height\n")
        for image_id, width, height in rows:
            fh.write(f"{image_id},{format_coordinate(width)},{format_coordinate(height)}\n")


def load_predictions_dir(directory: str | Path) -> dict[str, ImageDetections]:
    """Load every ``<image_id>.txt`` prediction file in a directory (at least one)."""
    files = _txt_files(directory, "prediction")
    return {file.stem: _parse_file(file, parse_predictions) for file in files}


def save_predictions(predictions: Mapping[str, ImageDetections], directory: str | Path) -> None:
    """Write one prediction file per image."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for image_id in sorted(predictions):
        path = directory / f"{image_id}.txt"
        path.write_text(format_predictions(predictions[image_id]), encoding="utf-8", newline="\n")
