import dataclasses

import pytest
from hypothesis import given, strategies as st

from boxlab.annotations import (
    BoundingBox,
    Dataset,
    DatasetError,
    Detection,
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
from conftest import write_corpus


class TestBoundingBox:
    def test_dimensions_and_area(self):
        box = BoundingBox(16, 618, 41, 639)
        assert (box.width, box.height) == (25, 21)
        assert box.area == 25 * 21

    @pytest.mark.parametrize(
        "coords",
        [(5, 5, 5, 9), (5, 5, 9, 5), (10, 0, 5, 5), (-1, 0, 5, 5), (0, 0, float("inf"), 5)],
    )
    def test_rejects_degenerate_boxes(self, coords):
        with pytest.raises(ValueError):
            BoundingBox(*coords)

    def test_subpixel_coordinates_allowed(self):
        box = BoundingBox(0.25, 0.5, 10.75, 9.5)
        assert box.width == 10.5


class TestParseGroundTruth:
    def test_reference_row(self):
        ann = parse_ground_truth("sorghumHeadyieldTrail 16 618 41 639", "img")
        assert len(ann.boxes) == 1
        gt = ann.boxes[0]
        assert gt.class_name == "sorghumHeadyieldTrail"
        assert gt.box.as_tuple() == (16.0, 618.0, 41.0, 639.0)
        assert (gt.box.width, gt.box.height) == (25.0, 21.0)
        assert ann.width is None and ann.height is None

    def test_empty_text_yields_no_boxes(self):
        ann = parse_ground_truth("", "img")
        assert ann.boxes == ()

    def test_blank_lines_ignored_order_preserved(self):
        ann = parse_ground_truth("a 0 0 1 1\n\n  \nb 1 1 2 2\n\n", "img")
        assert [gt.class_name for gt in ann.boxes] == ["a", "b"]

    def test_tab_separated(self):
        ann = parse_ground_truth("c\t1\t2\t3\t4", "img")
        assert ann.boxes[0].box.as_tuple() == (1.0, 2.0, 3.0, 4.0)

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
        det = dets.detections[0]
        assert det.confidence == 0.981597
        assert det.box.as_tuple() == (26.0, 448.0, 58.0, 477.0)

    def test_boundary_confidences(self):
        dets = parse_predictions("c 1.0 0 0 1 1\nc 0.0 0 0 1 1", "img")
        assert [d.confidence for d in dets.detections] == [1.0, 0.0]

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
        assert [d.class_name for d in dets.detections] == ["a", "b"]


finite_coord = st.floats(min_value=0, max_value=1000, allow_nan=False, allow_infinity=False)
positive_extent = st.floats(min_value=0.5, max_value=500, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    left = draw(finite_coord)
    top = draw(finite_coord)
    return BoundingBox(left, top, left + draw(positive_extent), top + draw(positive_extent))


class_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=12,
)


class TestRoundTrip:
    @given(st.lists(st.tuples(class_names, boxes()), max_size=8))
    def test_ground_truth_round_trip(self, items):
        ann = ImageAnnotations(
            "img", tuple(GroundTruthBox(name, box) for name, box in items)
        )
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
            "img", tuple(Detection(name, conf, box) for name, conf, box in items)
        )
        assert parse_predictions(format_predictions(dets), "img") == dets


class TestImageAnnotations:
    def test_dims_must_come_together(self):
        with pytest.raises(DatasetError):
            ImageAnnotations("img", (), width=100, height=None)

    def test_box_must_fit_inside_dims(self):
        gt = GroundTruthBox("c", BoundingBox(0, 0, 500, 10))
        with pytest.raises(DatasetError) as excinfo:
            ImageAnnotations("img", (gt,), width=400, height=400)
        assert "exceeds" in str(excinfo.value)

    def test_box_on_the_edge_is_fine(self):
        gt = GroundTruthBox("c", BoundingBox(0, 0, 400, 400))
        ann = ImageAnnotations("img", (gt,), width=400, height=400)
        assert len(ann) == 1


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
            "a",
            (GroundTruthBox("c", BoundingBox(0.5, 1.25, 10, 20)),),
            width=100.0,
            height=100.0,
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
        dets = ImageDetections(
            "a", (Detection("c", 0.981597, BoundingBox(26, 448, 58, 477)),)
        )
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


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is skipped, not read as part of a class name."""

    BOM = "\ufeff"

    def test_ground_truth_file(self, tmp_path):
        gt_dir = write_corpus(tmp_path / "gt", {"a": f"{self.BOM}head 0 0 10 10\n"})
        assert load_dataset(gt_dir).images["a"].boxes[0].class_name == "head"

    def test_prediction_file(self, tmp_path):
        pred_dir = write_corpus(tmp_path / "pred", {"a": f"{self.BOM}head 0.9 0 0 10 10\n"})
        assert load_predictions_dir(pred_dir)["a"].detections[0].class_name == "head"

    def test_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"{self.BOM}image_id,width,height\na,100,50\n", encoding="utf-8")
        assert load_manifest(path) == {"a": (100.0, 50.0)}


class TestImmutability:
    def test_types_are_frozen(self):
        box = BoundingBox(0, 0, 1, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.left = 5
