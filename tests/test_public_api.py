"""The public names of ``boxlab``: adding or removing one is a visible edit to this file."""

import boxlab

PUBLIC_API = [
    "__version__",
    "AnchorError",
    "AnchorSet",
    "CoverageDiagnostic",
    "DarknetConfigFragment",
    "Dataset",
    "DatasetError",
    "DatasetStats",
    "DetectorNoise",
    "EvalError",
    "EvalReport",
    "GroundTruthBox",
    "ImageAnnotations",
    "ImageDetections",
    "ImageStats",
    "PRCurve",
    "ParseError",
    "StatsError",
    "SynthConfig",
    "SynthError",
    "Verdicts",
    "average_precision",
    "compute_stats",
    "count_regression",
    "coverage",
    "emit_darknet_fragment",
    "evaluate",
    "extract_dims",
    "flag_outliers",
    "generate_dataset",
    "kmeans_anchors",
    "linefit_anchors",
    "load_dataset",
    "load_predictions_dir",
    "match_detections",
    "mean_average_precision",
    "parse_darknet_fragment",
    "parse_ground_truth",
    "parse_predictions",
    "save_dataset",
    "save_predictions",
    "simulate_detector",
]


def test_all_lists_exactly_the_public_api():
    assert boxlab.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    missing = [name for name in boxlab.__all__ if not hasattr(boxlab, name)]
    assert missing == []
