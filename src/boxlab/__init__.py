"""boxlab: bounding-box corpus statistics, anchor selection, and detection evaluation.

The toolkit covers everything around a single-shot detector except the
network itself: parsing and validating annotation corpora, summarizing
them, choosing anchor boxes (k-means or line-fit sampling), emitting the
matching detection-layer config, scoring predictions (AP/mAP and per-image
count agreement), and generating synthetic corpora with a simulated
detector to exercise the whole pipeline end to end.

``import boxlab`` loads no submodule and no numpy: each public name is
imported from its module on first access.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "anchorlab": (
        "AnchorError", "AnchorSet", "CoverageDiagnostic", "DarknetConfigFragment", "coverage",
        "emit_darknet_fragment", "kmeans_anchors", "linefit_anchors", "parse_darknet_fragment",
    ),
    "annotations": (
        "Dataset", "DatasetError", "GroundTruthBox", "ImageAnnotations", "ImageDetections",
        "ParseError", "load_dataset", "load_predictions_dir", "parse_ground_truth",
        "parse_predictions", "save_dataset", "save_predictions",
    ),
    "datastats": (
        "DatasetStats", "ImageStats", "StatsError", "compute_stats", "extract_dims",
        "flag_outliers",
    ),
    "evalcore": (
        "EvalError", "EvalReport", "PRCurve", "Verdicts", "average_precision", "count_regression",
        "evaluate", "match_detections", "mean_average_precision",
    ),
    "synthgen": (
        "DetectorNoise", "SynthConfig", "SynthError", "generate_dataset", "simulate_detector",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
