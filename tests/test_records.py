"""Every boxlab record that holds arrays keeps one contract.

It stores read-only copies and every other field as its declared type, and
compares by value: arrays with ``np.array_equal``, every other field with
``==``. Only the two image types are hashable. A figure that follows from a
record's inputs is a derived field: computed in ``__post_init__``, never
passed to the constructor or to ``dataclasses.replace``.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import types
import typing

import numpy as np
import pytest

import boxlab
from boxlab.anchorlab import AnchorSet, CoverageDiagnostic, KMeansRun, coverage, run_kmeans
from boxlab.annotations import Dataset, ImageAnnotations, ImageDetections, same_fields
from boxlab.datastats import DatasetStats, StatsError, compute_stats
from boxlab.evalcore import EvalError, EvalReport, PRCurve, Verdicts, evaluate
from boxlab.svgplot import Series

DIMS = np.array([[10.0, 10.0], [11.0, 11.0], [40.0, 40.0], [42.0, 41.0]])
ANCHORS = AnchorSet([[10.0, 10.0], [40.0, 40.0]])

# Each record: how to build it afresh, and one changed value per field.
RECORDS = {
    ImageAnnotations: (
        lambda: ImageAnnotations(
            "img", ("head", "leaf"), [[0, 0, 10, 10], [5, 5, 30, 20]], 40.0, 40.0, True
        ),
        {
            "image_id": "other",
            "class_names": ("head", "head"),
            "edges": [[0, 0, 10, 10], [5, 5, 30, 21]],
            "width": 41.0,
            "height": 41.0,
            "dims_inferred": False,
        },
    ),
    ImageDetections: (
        lambda: ImageDetections("img", ("head",), [[1, 1, 11, 11]], [0.9]),
        {
            "image_id": "other",
            "class_names": ("leaf",),
            "edges": [[1, 1, 11, 12]],
            "confidences": [0.8],
        },
    ),
    Verdicts: (
        lambda: Verdicts([0, 1], [0, 0], [0.9, 0.8], [0, -1], [0.8, 0.1]),
        {
            "image": [0, 2],
            "det_index": [1, 0],
            "confidence": [0.9, 0.7],
            "matched_gt": [0, 1],
            "iou": [0.8, 0.2],
        },
    ),
    PRCurve: (
        lambda: PRCurve([0.5, 1.0], [1.0, 1.0], [0.9, 0.8]),
        {
            "recall": [0.5, 0.75],
            "precision": [1.0, 0.5],
            "confidences": [0.9, 0.7],
        },
    ),
    AnchorSet: (
        lambda: AnchorSet([[10, 10], [20, 20]]),
        {"dims": [[10, 10], [20, 21]]},
    ),
    CoverageDiagnostic: (
        lambda: coverage(DIMS, ANCHORS),
        {
            "mean_best_iou": np.float32(0.5),
            "recall_at_t": np.float64(0.5),
            "threshold_t": 1,
            "per_anchor_assignment_counts": np.array([1, 3]),
        },
    ),
    Series: (
        lambda: Series("s", [[1.0, 2.0], [3.0, 4.0]]),
        {"label": "t", "points": [[1.0, 2.0], [3.0, 5.0]], "marker": "cross"},
    ),
    KMeansRun: (
        lambda: run_kmeans(DIMS, 2),
        {
            "centroids": np.array([[10.5, 10.5], [41.0, 41.0]]),
            "labels": np.array([0, 0, 1, 0]),
            "objective_history": [0.0],
        },
    ),
}
HASHABLE = (ImageAnnotations, ImageDetections)

# Text fields that differ from the built record's only by a trailing NUL, which
# numpy's str comparison would drop.
NUL_VARIANTS = [
    (ImageAnnotations, "image_id", "img\x00"),
    (ImageAnnotations, "class_names", ("head", "leaf\x00")),
    (ImageDetections, "image_id", "img\x00"),
    (ImageDetections, "class_names", ("head\x00",)),
    (Series, "label", "s\x00"),
]


def has_declared_type(value, hint) -> bool:
    """Whether ``value`` is exactly of type ``hint``: a tuple of the declared items, one
    member of a union, or an instance of that very class (not of a subclass such as
    ``np.float64``)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        return (type(value) is tuple and len(items) == len(value)
                and all(map(has_declared_type, value, items)))
    if origin in (typing.Union, types.UnionType):
        return any(has_declared_type(value, arg) for arg in args)
    return type(value) is hint


def array_fields(record) -> dict:
    return {
        f.name: getattr(record, f.name)
        for f in dataclasses.fields(record)
        if isinstance(getattr(record, f.name), np.ndarray)
    }


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    build, changes = RECORDS[cls]
    record, rebuilt = build(), build()
    assert type(record) is cls
    assert record == rebuilt and not record != rebuilt
    arrays = array_fields(record)
    assert arrays
    # The two builds share no array, so equality compares values, not identity.
    assert not any(map(np.shares_memory, arrays.values(), array_fields(rebuilt).values()))

    assert set(changes) == {f.name for f in dataclasses.fields(cls) if f.init}
    hints = typing.get_type_hints(cls)
    others = [f.name for f in dataclasses.fields(cls) if hints[f.name] is not np.ndarray]
    for name, value in changes.items():
        changed = dataclasses.replace(record, **{name: value})
        assert changed != record and record != changed, name
        assert not changed == record, name
        # The record stores its own read-only copy of a value passed in, whatever its type.
        for array_name in arrays:
            stored = getattr(changed, array_name)
            assert isinstance(stored, np.ndarray) and not stored.flags.writeable, (name, array_name)
        if name in arrays:
            assert not np.shares_memory(getattr(changed, name), value), name
        # Every other field holds its declared type, also when a value of another type is passed.
        for other in others:
            assert has_declared_type(getattr(changed, other), hints[other]), (name, other)

    for name, array in arrays.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array.flat[0] = 0

    assert (record == object()) is False and record != object()

    if cls in HASHABLE:
        assert hash(record) == hash(rebuilt)
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize(
    "cls, name, value",
    NUL_VARIANTS,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in NUL_VARIANTS],
)
def test_a_trailing_nul_makes_text_unequal(cls, name, value):
    record = RECORDS[cls][0]()
    changed = dataclasses.replace(record, **{name: value})
    assert changed != record and record != changed


def test_records_of_different_types_are_unequal():
    ann = RECORDS[ImageAnnotations][0]()
    dets = ImageDetections("img", ann.class_names, ann.edges, [0.5, 0.5])
    assert ann != dets and dets != ann


def test_every_array_record_compares_with_same_fields():
    """A dataclass with an array field must use ``same_fields``: the generated
    ``__eq__`` compares a tuple of arrays and raises on any array of two or more values."""
    found = []
    for info in pkgutil.iter_modules(boxlab.__path__):
        module = importlib.import_module(f"boxlab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or not dataclasses.is_dataclass(cls):
                continue
            hints = typing.get_type_hints(cls)
            if any(hints[f.name] is np.ndarray for f in dataclasses.fields(cls)):
                found.append(cls)
                assert cls.__eq__ is same_fields, cls.__name__
    assert set(found) == set(RECORDS)


def two_image_corpus():
    """Image 'a' holds one head and one leaf, image 'b' three heads; only 'a' has detections,
    one that finds its head and one that misses its leaf."""
    gt = Dataset.from_images([
        ImageAnnotations("a", ("head", "leaf"), [[0, 0, 10, 10], [20, 20, 30, 30]], 40.0, 40.0),
        ImageAnnotations("b", ("head",) * 3, [[0, 0, 10, 10], [10, 0, 20, 10], [20, 0, 30, 10]],
                         40.0, 40.0),
    ])
    predictions = [ImageDetections("a", ("head", "leaf"), [[0, 0, 10, 10], [25, 25, 35, 35]],
                                   [0.9, 0.8])]
    return gt, predictions


# Each record with derived fields: how to build it, one changed input, and the derived
# figures that input gives.
DERIVED = {
    Verdicts: (RECORDS[Verdicts][0], {"matched_gt": [-1, 1]}, {"is_tp": [False, True]}),
    PRCurve: (RECORDS[PRCurve][0], {"precision": [1.0, 0.5]}, {"ap": 0.75}),
    # The leaf class alone scores 0.
    EvalReport: (
        lambda: evaluate(*two_image_corpus()),
        {"pr_per_class": {"leaf": evaluate(*two_image_corpus()).pr_per_class["leaf"]}},
        {"ap_per_class": {"leaf": 0.0}, "map_score": 0.0},
    ),
    # Image 'b' alone: three heads covering 300 of 1600 pixels.
    DatasetStats: (
        lambda: compute_stats(two_image_corpus()[0]),
        {"per_image": compute_stats(two_image_corpus()[0]).per_image[1:]},
        {"total_heads": 3, "mean_count": 3.0, "sd_count": 0.0,
         "count_quantiles": (3.0,) * 5, "coverage_quantiles": (0.1875,) * 5},
    ),
}


def plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("cls", DERIVED, ids=lambda cls: cls.__name__)
def test_derived_fields_are_computed_and_refused_as_inputs(cls):
    build, changes, figures = DERIVED[cls]
    record = build()
    inputs = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls) if f.init}
    assert {f.name for f in dataclasses.fields(cls) if not f.init} == set(figures)
    assert cls(**inputs) == record
    for name in figures:
        with pytest.raises(TypeError, match=name):
            cls(**inputs, **{name: getattr(record, name)})
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(record, **{name: getattr(record, name)})

    # Replacing an input recomputes every derived figure.
    changed = dataclasses.replace(record, **changes)
    for name, wanted in figures.items():
        assert plain(getattr(record, name)) != wanted, name
        assert plain(getattr(changed, name)) == wanted, name


def test_a_report_without_a_class_is_refused():
    report = evaluate(*two_image_corpus())
    with pytest.raises(EvalError, match="at least one class"):
        dataclasses.replace(report, pr_per_class={})
    with pytest.raises(EvalError, match="at least one class"):
        EvalReport({}, 0.7)


def test_stats_of_no_image_are_refused():
    with pytest.raises(StatsError, match="dataset is empty"):
        dataclasses.replace(compute_stats(two_image_corpus()[0]), per_image=())
