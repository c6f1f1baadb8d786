import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from boxlab import annotations
from boxlab.annotations import (
    Dataset,
    DatasetError,
    GroundTruthBox,
    ImageAnnotations,
    ImageDetections,
    ParseError,
    format_ground_truth,
    format_predictions,
    load_dataset,
    load_manifest,
    load_predictions_dir,
    parse_ground_truth,
    parse_predictions,
    save_dataset,
    save_predictions,
)
from boxlab.datastats import extract_dims
from conftest import write_corpus
from oracles import (
    ReferenceParseError,
    reference_parse_ground_truth,
    reference_parse_predictions,
)


def dims_of(ann: ImageAnnotations) -> list[list[float]]:
    """(width, height) of each box of one image."""
    return extract_dims(Dataset.from_images([ann])).tolist()


class TestBoundingBox:
    """The constructors' checks and arithmetic of one (left, top, right, bottom) row."""

    def test_dimensions_and_area(self):
        ann = ImageAnnotations("img", ["c"], [(16, 618, 41, 639)])
        assert dims_of(ann) == [[25, 21]]
        assert np.prod(dims_of(ann)) == 25 * 21

    @pytest.mark.parametrize(
        "coords",
        [
            ((5, 5, 5, 9), "zero-width box"),
            ((5, 5, 9, 5), "zero-height box"),
            ((10, 0, 5, 5), "zero-width box: right 5.0 <= left 10.0"),
            ((-1, 0, 5, 5), "negative coordinate"),
            ((0, 0, float("inf"), 5), "right is not a finite number"),
            ((0, 0, 1e200, 1e200), "box area overflows"),
        ],
    )
    def test_rejects_degenerate_boxes(self, coords):
        row, reason = coords
        with pytest.raises(ValueError, match=f"^box 1: {reason}"):
            ImageAnnotations("img", ["c"], [row])
        with pytest.raises(ValueError, match=f"^box 1: {reason}"):
            ImageDetections("img", ["c"], [row], [0.5])

    def test_subpixel_coordinates_allowed(self):
        ann = ImageAnnotations("img", ["c"], [(0.25, 0.5, 10.75, 9.5)])
        assert dims_of(ann)[0][0] == 10.5


class TestParseGroundTruth:
    def test_reference_row(self):
        ann = parse_ground_truth("sorghumHeadyieldTrail 16 618 41 639", "img")
        assert len(ann) == 1
        assert ann.class_names == ("sorghumHeadyieldTrail",)
        assert ann.edges.tolist() == [[16.0, 618.0, 41.0, 639.0]]
        assert dims_of(ann) == [[25.0, 21.0]]
        assert ann.width is None and ann.height is None

    def test_empty_text_yields_no_boxes(self):
        ann = parse_ground_truth("", "img")
        assert ann.class_names == () and ann.edges.shape == (0, 4)

    def test_blank_lines_ignored_order_preserved(self):
        ann = parse_ground_truth("a 0 0 1 1\n\n  \nb 1 1 2 2\n\n", "img")
        assert ann.class_names == ("a", "b")
        assert ann.edges.tolist() == [[0, 0, 1, 1], [1, 1, 2, 2]]

    def test_tab_separated(self):
        ann = parse_ground_truth("c\t1\t2\t3\t4", "img")
        assert ann.edges.tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_zero_width_box_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_ground_truth("c 5 5 5 9", "img")
        assert excinfo.value.line == 1
        assert "line 1" in str(excinfo.value)

    def test_error_on_second_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_ground_truth("c 0 0 1 1\nc 1 2 three 4", "img")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("line", ["c 1 2 3", "c 1 2 3 4 5", "1 2 3 4"])
    def test_wrong_field_count(self, line):
        with pytest.raises(ParseError):
            parse_ground_truth(line, "img")


class TestParsePredictions:
    def test_reference_row(self):
        dets = parse_predictions("sorghumHeadyieldTrail 0.981597 26 448 58 477", "img")
        assert dets.class_names == ("sorghumHeadyieldTrail",)
        assert dets.confidences.tolist() == [0.981597]
        assert dets.edges.tolist() == [[26.0, 448.0, 58.0, 477.0]]

    def test_boundary_confidences(self):
        dets = parse_predictions("c 1.0 0 0 1 1\nc 0.0 0 0 1 1", "img")
        assert dets.confidences.tolist() == [1.0, 0.0]

    def test_confidence_out_of_range(self):
        with pytest.raises(ParseError) as excinfo:
            parse_predictions("c 1.5 0 0 1 1", "img")
        assert excinfo.value.line == 1
        assert "confidence" in str(excinfo.value)

    def test_five_fields_rejected(self):
        with pytest.raises(ParseError):
            parse_predictions("c 0 0 1 1", "img")

    def test_order_preserved(self):
        dets = parse_predictions("a 0.1 0 0 1 1\nb 0.9 0 0 1 1", "img")
        assert dets.class_names == ("a", "b")
        assert dets.confidences.tolist() == [0.1, 0.9]


finite_coord = st.floats(min_value=0, max_value=1000, allow_nan=False, allow_infinity=False)
positive_extent = st.floats(min_value=0.5, max_value=500, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    """One (left, top, right, bottom) edge row."""
    left = draw(finite_coord)
    top = draw(finite_coord)
    return (left, top, left + draw(positive_extent), top + draw(positive_extent))


class_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=12,
)


class TestRoundTrip:
    @given(st.lists(st.tuples(class_names, boxes()), max_size=8))
    def test_ground_truth_round_trip(self, items):
        ann = ImageAnnotations("img", [name for name, _ in items], [box for _, box in items])
        assert parse_ground_truth(format_ground_truth(ann), "img") == ann

    @given(
        st.lists(
            st.tuples(
                class_names,
                st.floats(min_value=0, max_value=1, allow_nan=False),
                boxes(),
            ),
            max_size=8,
        )
    )
    def test_predictions_round_trip(self, items):
        dets = ImageDetections(
            "img",
            [name for name, _, _ in items],
            [box for _, _, box in items],
            [conf for _, conf, _ in items],
        )
        assert parse_predictions(format_predictions(dets), "img") == dets


class TestImageAnnotations:
    def test_dims_must_come_together(self):
        with pytest.raises(DatasetError):
            ImageAnnotations("img", (), width=100, height=None)

    def test_inferred_dims_must_be_set(self):
        with pytest.raises(DatasetError, match="'img': inferred dimensions must be set"):
            ImageAnnotations("img", ["c"], [(0, 0, 1, 1)], dims_inferred=True)
        ann = ImageAnnotations("img", ["c"], [(0, 0, 1, 1)], 1.0, 1.0, dims_inferred=True)
        with pytest.raises(DatasetError, match="inferred dimensions must be set"):
            dataclasses.replace(ann, width=None, height=None)

    def test_box_must_fit_inside_dims(self):
        with pytest.raises(DatasetError) as excinfo:
            ImageAnnotations("img", ["c"], [(0, 0, 500, 10)], width=400, height=400)
        assert "exceeds" in str(excinfo.value)

    def test_box_on_the_edge_is_fine(self):
        ann = ImageAnnotations("img", ["c"], [(0, 0, 400, 400)], width=400, height=400)
        assert len(ann) == 1

    @pytest.mark.parametrize(
        "width, height",
        [(float("nan"), 5.0), (5.0, float("nan")), (float("inf"), 5.0), (5.0, float("inf")),
         (0.0, 5.0), (5.0, -1.0)],
    )
    def test_dims_must_be_positive_and_finite(self, width, height):
        with pytest.raises(DatasetError, match="dimensions must be positive and finite"):
            ImageAnnotations("img", ["h"], [(0, 0, 1, 1)], width=width, height=height)

    def test_replace_builds_a_checked_image(self):
        ann = ImageAnnotations("img", ["c"], [(0, 0, 30, 40)], width=50.0, height=50.0)
        wider = dataclasses.replace(ann, width=60.0)
        assert wider == ImageAnnotations("img", ["c"], [(0, 0, 30, 40)], width=60.0, height=50.0)
        assert not wider.edges.flags.writeable
        with pytest.raises(DatasetError, match="box 1 .* exceeds image bounds 20.0x50.0"):
            dataclasses.replace(ann, width=20.0)
        with pytest.raises(DatasetError, match="positive and finite"):
            dataclasses.replace(ann, height=float("nan"))
        with pytest.raises(ValueError, match="box 1: zero-width box"):
            dataclasses.replace(ann, edges=[(5, 0, 5, 1)])

    def test_replace_rechecks_detections(self):
        dets = ImageDetections("img", ["c"], [(0, 0, 1, 1)], [0.5])
        assert dataclasses.replace(dets, confidences=[0.75]).confidences.tolist() == [0.75]
        with pytest.raises(ValueError, match="box 1: confidence out of range"):
            dataclasses.replace(dets, confidences=[1.5])


class TestDataset:
    def test_duplicate_image_id_rejected(self):
        a = ImageAnnotations("same", ())
        with pytest.raises(DatasetError):
            Dataset.from_images([a, a])

    def test_iteration_sorted_by_id(self):
        ds = Dataset.from_images(
            [ImageAnnotations("b", ()), ImageAnnotations("a", ()), ImageAnnotations("c", ())]
        )
        assert ds.image_ids == ("a", "b", "c")
        assert [ann.image_id for ann in ds] == ["a", "b", "c"]
        unsorted = Dataset({"b": ImageAnnotations("b"), "a": ImageAnnotations("a")})
        assert list(unsorted.images) == ["a", "b"]
        assert [ann.image_id for ann in unsorted] == ["a", "b"]
        with pytest.raises(TypeError):
            unsorted.images["0"] = ImageAnnotations("0")

    def test_key_must_be_the_image_id(self):
        images = {"x": ImageAnnotations("y", ["h"], [[0, 0, 5, 5]]), "z": ImageAnnotations("z")}
        with pytest.raises(DatasetError, match="image 'y' is keyed as 'x'"):
            Dataset(images=images)
        ds = Dataset.from_images([ImageAnnotations("z")])
        with pytest.raises(DatasetError, match="image 'y' is keyed as 'x'"):
            dataclasses.replace(ds, images=images)


class TestLoadDataset:
    def test_counts_files_and_boxes(self, tmp_path):
        gt_dir = write_corpus(
            tmp_path / "gt",
            {"a": "c 0 0 1 1\nc 1 1 2 2\n", "b": "c 0 0 1 1\nc 1 1 2 2\nc 2 2 3 3\n"},
        )
        ds = load_dataset(gt_dir)
        assert len(ds) == 2
        assert ds.total_boxes == 5

    def test_manifest_attaches_dims(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"a": "c 0 0 10 10\n"})
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("image_id,width,height\na,1200,1200\n")
        ds = load_dataset(gt_dir, manifest)
        ann = ds.images["a"]
        assert (ann.width, ann.height) == (1200.0, 1200.0)
        assert ann.dims_inferred is False

    def test_inferred_dims_are_ceiling_of_extents(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"a": "c 0 0 10.2 8.9\nc 1 1 4 12.1\n"})
        ann = load_dataset(gt_dir).images["a"]
        assert (ann.width, ann.height) == (11.0, 13.0)
        assert ann.dims_inferred is True

    def test_no_boxes_means_no_dims(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"a": ""})
        ann = load_dataset(gt_dir).images["a"]
        assert ann.width is None

    def test_manifest_row_for_missing_image(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"a": "c 0 0 1 1\n"})
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("image_id,width,height\na,100,100\nghost,100,100\n")
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(gt_dir, manifest)
        assert "ghost" in str(excinfo.value)

    def test_box_exceeding_manifest_dims(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"a": "c 0 0 500 10\n"})
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("image_id,width,height\na,400,400\n")
        with pytest.raises(DatasetError):
            load_dataset(gt_dir, manifest)

    def test_empty_directory(self, tmp_path):
        (tmp_path / "gt").mkdir()
        with pytest.raises(DatasetError) as excinfo:
            load_dataset(tmp_path / "gt")
        assert "no annotation files found" in str(excinfo.value)

    def test_parse_error_names_file(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"bad": "c 5 5 5 9\n"})
        with pytest.raises(ParseError) as excinfo:
            load_dataset(gt_dir)
        assert "bad.txt" in str(excinfo.value)
        assert excinfo.value.line == 1

    def test_creation_order_does_not_matter(self, tmp_path):
        files = {"x": "c 0 0 1 1\n", "m": "c 1 1 3 3\n", "a": ""}
        one = write_corpus(tmp_path / "one", files)
        two = tmp_path / "two"
        two.mkdir()
        for image_id in reversed(list(files)):
            (two / f"{image_id}.txt").write_text(files[image_id], encoding="utf-8")
        assert load_dataset(one).images == load_dataset(two).images


class TestSaveLoad:
    def test_dataset_round_trip(self, tmp_path):
        ann_explicit = ImageAnnotations(
            "a", ["c"], [(0.5, 1.25, 10, 20)], width=100.0, height=100.0
        )
        ann_none = ImageAnnotations("b", ())
        ds = Dataset.from_images([ann_explicit, ann_none])
        save_dataset(ds, tmp_path / "out")
        loaded = load_dataset(tmp_path / "out", tmp_path / "out" / "manifest.csv")
        assert loaded.images["a"] == ann_explicit
        assert loaded.images["b"] == ann_none

    def test_inferred_dims_survive_round_trip(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"a": "c 0 0 10 10\n"})
        ds = load_dataset(gt_dir)
        assert ds.images["a"].dims_inferred is True
        save_dataset(ds, tmp_path / "resaved")
        again = load_dataset(tmp_path / "resaved", tmp_path / "resaved" / "manifest.csv")
        assert again.images["a"] == ds.images["a"]

    def test_prediction_directory_without_files_rejected(self, tmp_path):
        (tmp_path / "pred").mkdir()
        with pytest.raises(DatasetError) as excinfo:
            load_predictions_dir(tmp_path / "pred")
        assert "no prediction files found" in str(excinfo.value)

    def test_predictions_round_trip(self, tmp_path):
        dets = ImageDetections("a", ["c"], [(26, 448, 58, 477)], [0.981597])
        save_predictions({"a": dets}, tmp_path / "pred")
        assert load_predictions_dir(tmp_path / "pred") == {"a": dets}


class TestLoadManifest:
    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,w,h\na,1,1\n")
        with pytest.raises(DatasetError):
            load_manifest(path)

    def test_rejects_duplicate_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("image_id,width,height\na,1,1\na,2,2\n")
        with pytest.raises(DatasetError):
            load_manifest(path)

    @pytest.mark.parametrize("row", ["a,zero,1", "a,0,5", "a,-3,5"])
    def test_rejects_bad_dimensions(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(f"image_id,width,height\n{row}\n")
        with pytest.raises(DatasetError):
            load_manifest(path)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is reported with its file and line, in every input."""

    def test_ground_truth_file(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"head 0 0 1 1\r\nh\xffad 0 0 10 10\n")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(tmp_path)
        assert (excinfo.value.line, excinfo.value.source) == (2, str(tmp_path / "a.txt"))
        assert excinfo.value.reason == "not UTF-8 text: byte 0xff"

    def test_prediction_file(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"\xef\xbb\xbfhead 0.5 0 0 1 1\xc3\n")
        with pytest.raises(ParseError) as excinfo:
            load_predictions_dir(tmp_path)
        assert (excinfo.value.line, excinfo.value.source) == (1, str(tmp_path / "a.txt"))

    def test_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"image_id,width,height\na,1,1\n\xff,2,2\n")
        with pytest.raises(DatasetError, match="m.csv: line 3: not UTF-8 text: byte 0xff"):
            load_manifest(path)

    def test_manifest_counts_physical_lines_not_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b'image_id,width,height\n"a\nb",1,1\n\xff,2,2\n')
        with pytest.raises(DatasetError, match="m.csv: line 4: not UTF-8 text"):
            load_manifest(path)


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is skipped, not read as part of a class name."""

    BOM = "\ufeff"

    def test_ground_truth_file(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"a": f"{self.BOM}head 0 0 10 10\n"})
        assert load_dataset(gt_dir).images["a"].class_names == ("head",)

    def test_prediction_file(self, tmp_path):
        pred_dir = write_corpus(tmp_path / "pred", {"a": f"{self.BOM}head 0.9 0 0 10 10\n"})
        assert load_predictions_dir(pred_dir)["a"].class_names == ("head",)

    def test_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{self.BOM}image_id,width,height\na,100,50\n", encoding="utf-8")
        assert load_manifest(path) == {"a": (100.0, 50.0)}


class TestImmutability:
    def test_types_are_frozen(self):
        ann = ImageAnnotations("img", ["c"], [(0, 0, 1, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            ann.image_id = "other"
        dets = ImageDetections("img", ["c"], [(0, 0, 1, 1)], [0.5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            dets.confidences = np.ones(1)
        with pytest.raises(AttributeError):
            ann.boxes[0].left = 5


class TestColumns:
    def test_parsed_columns(self):
        ann = parse_ground_truth("a 0 0 1 2\nb 1.5 1 4 3\n", "img")
        assert ann.class_names == ("a", "b")
        assert ann.edges.dtype == np.float64
        assert ann.edges.tolist() == [[0.0, 0.0, 1.0, 2.0], [1.5, 1.0, 4.0, 3.0]]
        dets = parse_predictions("a 0.25 0 0 1 2\n", "img")
        assert dets.confidences.tolist() == [0.25]
        assert dets.edges.shape == (1, 4)

    def test_empty_columns_keep_their_shape(self):
        assert parse_ground_truth("", "img").edges.shape == (0, 4)
        dets = parse_predictions("\n\n", "img")
        assert dets.edges.shape == (0, 4) and dets.confidences.shape == (0,)

    def test_loading_checks_each_image_once(self, tmp_path, monkeypatch):
        checked = []
        original = annotations._checked_columns

        def counting(*columns):
            checked.append(columns[0])
            return original(*columns)

        monkeypatch.setattr(annotations, "_checked_columns", counting)
        gt_dir = write_corpus(
            tmp_path / "gt", {"a": "c 0 0 1 1\n", "b": "c 0 0 2 2\nc 1 1 3 3\n", "e": ""}
        )
        (tmp_path / "m.csv").write_text("image_id,width,height\na,5,5\n")
        ds = load_dataset(gt_dir, tmp_path / "m.csv")
        assert len(checked) == 3
        assert [(ann.width, ann.dims_inferred) for ann in ds] == [
            (5.0, False), (3.0, True), (None, False)
        ]

    def test_loaders_share_one_string_per_class_name(self, tmp_path):
        # "head" is built at run time, so only interning can make it the loaded names' object.
        head = "".join(["he", "ad"])
        gt = load_dataset(write_corpus(tmp_path / "gt", {
            "a": "head 0 0 1 1\nleaf 1 1 2 2\nhead 2 2 3 3\n", "b": "head 0 0 2 2\n"
        }))
        a, b = gt.images["a"], gt.images["b"]
        assert a.class_names[0] is a.class_names[2] is b.class_names[0]
        assert a.class_names[0] is sys.intern(head)
        preds = load_predictions_dir(write_corpus(tmp_path / "pred", {
            "a": "head 0.9 0 0 1 1\nhead 0.8 2 2 3 3\n", "b": "head 0.5 0 0 2 2\n"
        }))
        a, b = preds["a"], preds["b"]
        assert a.class_names[0] is a.class_names[1] is b.class_names[0]
        assert b.class_names[0] is gt.images["a"].class_names[0]

    def test_columns_are_read_only(self):
        ann = parse_ground_truth("a 0 0 1 1", "img")
        with pytest.raises(ValueError):
            ann.edges[0, 0] = 5.0
        dets = parse_predictions("a 0.5 0 0 1 1", "img")
        with pytest.raises(ValueError):
            dets.confidences[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ann.edges = np.zeros((1, 4))

    def test_from_columns_copies_its_input(self):
        edges = np.array([[0.0, 0.0, 1.0, 1.0]])
        ann = ImageAnnotations("img", ["a"], edges)
        edges[0, 0] = 0.5
        assert ann.edges[0, 0] == 0.0

    @given(
        st.lists(
            st.tuples(class_names, st.floats(min_value=0, max_value=1), boxes()), max_size=8
        )
    )
    def test_records_and_columns_agree(self, items):
        """Rows taken apart into columns come back unchanged, as columns and as the row view."""
        names = [name for name, _, _ in items]
        rows = [box for _, _, box in items]
        ann = ImageAnnotations("img", names, rows)
        assert ann.class_names == tuple(names)
        assert ann.edges.tolist() == [list(row) for row in rows]
        assert ann.boxes == tuple(GroundTruthBox(name, *row) for name, row in zip(names, rows))
        confidences = [conf for _, conf, _ in items]
        dets = ImageDetections("img", names, rows, confidences)
        assert dets.class_names == tuple(names)
        assert dets.edges.tolist() == [list(row) for row in rows]
        assert dets.confidences.tolist() == confidences

    def test_detections_differing_only_in_confidence_are_unequal(self):
        dets = ImageDetections("img", ["a"], [[0, 0, 1, 2]], [0.5])
        assert dets == ImageDetections("img", ["a"], [[0, 0, 1, 2]], [0.5])
        assert dets != ImageDetections("img", ["a"], [[0, 0, 1, 2]], [0.75])

    @pytest.mark.parametrize(
        "names, edges, message",
        [
            (["a"], [[0, 0, 0, 1]], "box 1: zero-width box"),
            (["a", "b"], [[0, 0, 1, 1], [-1, 0, 1, 1]], "box 2: negative coordinate"),
            (["a"], [[0, 0, np.nan, 1]], "box 1: right is not a finite number"),
            (["a b"], [[0, 0, 1, 1]], "box 1: class name contains whitespace"),
            ([""], [[0, 0, 1, 1]], "box 1: empty class name"),
            (["a"], [[0, 0, 1]], "edges must have shape (1, 4)"),
            (["a", "b"], [[0, 0, 1, 1]], "edges must have shape (2, 4)"),
        ],
    )
    def test_from_columns_checks_every_row(self, names, edges, message):
        with pytest.raises(ValueError) as excinfo:
            ImageAnnotations("img", names, edges)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize(
        "confidences, message",
        [([1.5], "box 1: confidence out of range"), ([0.5, 0.5], "confidences must have shape")],
    )
    def test_detection_columns_check_confidences(self, confidences, message):
        with pytest.raises(ValueError) as excinfo:
            ImageDetections("img", ["a"], [[0, 0, 1, 1]], confidences)
        assert message in str(excinfo.value)

    def test_from_columns_checks_image_bounds(self):
        with pytest.raises(DatasetError) as excinfo:
            ImageAnnotations("img", ["a"], [[0, 0, 500, 10]], 400, 400)
        assert "box 1 (0.0, 0.0, 500.0, 10.0) exceeds image bounds 400x400" in str(excinfo.value)


def _outcome(parse, text):
    try:
        parsed = parse(text, "img")
    except ParseError as exc:
        return ("error", exc.line, exc.reason)
    values = parsed.edges.tolist()
    if isinstance(parsed, ImageDetections):
        values = [[c, *row] for c, row in zip(parsed.confidences.tolist(), values)]
    return ("ok", [[name, *row] for name, row in zip(parsed.class_names, values)])


def _reference_outcome(parse, text):
    try:
        rows = parse(text)
    except ReferenceParseError as exc:
        return ("error", exc.line, exc.reason)
    return ("ok", [list(row) for row in rows])


ODD_NUMBERS = [
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "1e200", "1E3",
    "2.5e+1", "+5", "-0.0", "-0", "1_0", "0x10", "1e", ".5", "5.", "three", "١٢", "½",
]
# Characters that str.split or str.splitlines treat specially, plus a BOM.
ODD_CHARS = ["\ufeff", "\u00a0", "\u2009", "\u3000", "\x85", "\u2028", "\x0b", "\x1c", "é"]


@st.composite
def number_tokens(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(ODD_NUMBERS))
    value = draw(st.floats(min_value=-5, max_value=2000, allow_nan=False))
    return draw(st.sampled_from([repr(value), f"{value:e}", f"{value:.0f}", f"{value:.2E}"]))


@st.composite
def box_tokens(draw):
    """Four edge tokens, usually a valid box, sometimes anything."""
    if draw(st.integers(0, 5)) == 0:
        return [draw(number_tokens()) for _ in range(4)]
    left = draw(st.floats(min_value=0, max_value=1000, allow_nan=False))
    top = draw(st.floats(min_value=0, max_value=1000, allow_nan=False))
    right = left + draw(st.floats(min_value=0.5, max_value=200, allow_nan=False))
    bottom = top + draw(st.floats(min_value=0.5, max_value=200, allow_nan=False))
    return [draw(st.sampled_from([repr(v), f"{v:e}"])) for v in (left, top, right, bottom)]


@st.composite
def annotation_texts(draw, with_confidence):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\u3000"])))
            continue
        name = draw(st.text(st.sampled_from("head_7"), min_size=1, max_size=6))
        if draw(st.integers(0, 4)) == 0:
            at = draw(st.integers(0, len(name)))
            name = name[:at] + draw(st.sampled_from(ODD_CHARS)) + name[at:]
        tokens = [name]
        if with_confidence:
            confidence = draw(st.floats(min_value=-0.1, max_value=1.1, allow_nan=False))
            tokens.append(draw(st.sampled_from([repr(confidence), f"{confidence:e}"])))
            if draw(st.integers(0, 9)) == 0:
                tokens[-1] = draw(number_tokens())
        tokens += draw(box_tokens())
        if draw(st.integers(0, 19)) == 0:
            del tokens[-1]
        elif draw(st.integers(0, 19)) == 0:
            tokens.append("0")
        separator = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        trailing = draw(st.sampled_from(["", " ", "\t", " \u00a0"]))
        lines.append(separator.join(tokens) + trailing)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestAgainstReferenceParser:
    """The column parsers give the per-line reference parser's rows, or its first error."""

    @FUZZ
    @given(annotation_texts(with_confidence=False))
    def test_ground_truth(self, text):
        assert _outcome(parse_ground_truth, text) == _reference_outcome(
            reference_parse_ground_truth, text
        )

    @FUZZ
    @given(annotation_texts(with_confidence=True))
    def test_predictions(self, text):
        assert _outcome(parse_predictions, text) == _reference_outcome(
            reference_parse_predictions, text
        )

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("c 5 5 5 9", 1, "zero-width box: right 5.0 <= left 5.0"),
            ("c 0 0 1 1\nc 1 2 three 4", 2, "non-numeric right: 'three'"),
            ("c 1 2 3", 1, "expected 5 fields, found 4"),
            ("c 1 2 3 4 5", 1, "expected 5 fields, found 6"),
            ("1 2 3 4", 1, "expected 5 fields, found 4"),
            ("c 0 0 1 1\n\nc 5 5 9 5\nc 1 2 3\n", 3, "zero-height box: bottom 5.0 <= top 5.0"),
            ("c -1 nan 1 1\nc 1 1", 1, "non-finite top: 'nan'"),
            ("c 1e400 0 1 1", 1, "non-finite left: '1e400'"),
            ("c -1 0 1 1", 1, "negative coordinate in box (-1.0, 0.0, 1.0, 1.0)"),
        ],
    )
    def test_ground_truth_errors(self, text, line, reason):
        assert _outcome(parse_ground_truth, text) == ("error", line, reason)
        assert _reference_outcome(reference_parse_ground_truth, text) == ("error", line, reason)

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("c 1.5 0 0 1 1", 1, "confidence out of range [0, 1]: 1.5"),
            ("c 0 0 1 1", 1, "expected 6 fields, found 5"),
            ("c 0.5 0 0 1 1\nc 2 0 0 0 1\nc x 0 0 1 1", 2, "zero-width box: right 0.0 <= left 0.0"),
            ("c x 0 0 0 1", 1, "non-numeric confidence: 'x'"),
            ("c inf 0 0 1 1", 1, "non-finite confidence: 'inf'"),
        ],
    )
    def test_prediction_errors(self, text, line, reason):
        assert _outcome(parse_predictions, text) == ("error", line, reason)
        assert _reference_outcome(reference_parse_predictions, text) == ("error", line, reason)

    def test_box_area_overflow_is_malformed(self):
        reason = "box area overflows: width 1e+200 x height 1e+200"
        gt_text = "head 0 0 1 1\nhead 0 0 1e200 1e200"
        assert _outcome(parse_ground_truth, gt_text) == ("error", 2, reason)
        assert _reference_outcome(reference_parse_ground_truth, gt_text) == ("error", 2, reason)
        pred_text = "head 0.5 0 0 1e200 1e200"
        assert _outcome(parse_predictions, pred_text) == ("error", 1, reason)
        assert _reference_outcome(reference_parse_predictions, pred_text) == ("error", 1, reason)
        with pytest.raises(ValueError, match="box 2: box area overflows"):
            ImageAnnotations("img", ["head"] * 2, [[0, 0, 1, 1], [0, 0, 1e200, 1e200]])

    @settings(max_examples=40, deadline=None)
    @given(annotation_texts(with_confidence=False))
    def test_files_on_disk(self, tmp_path_factory, text):
        directory = tmp_path_factory.mktemp("gt")
        (directory / "img.txt").write_bytes(text.encode("utf-8"))
        expected = _reference_outcome(reference_parse_ground_truth, text.removeprefix("\ufeff"))
        try:
            loaded = load_dataset(directory).images["img"]
        except ParseError as exc:
            assert ("error", exc.line, exc.reason) == expected
            assert exc.source == str(directory / "img.txt")
        else:
            assert expected == ("ok", [[name, *row] for name, row in zip(
                loaded.class_names, loaded.edges.tolist())])
