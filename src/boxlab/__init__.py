"""boxlab: bounding-box corpus statistics, anchor selection, and detection evaluation.

The toolkit covers everything around a single-shot detector except the
network itself: parsing and validating annotation corpora, summarizing
them, choosing anchor boxes (k-means or line-fit sampling), emitting the
matching detection-layer config, scoring predictions (AP/mAP and per-image
count agreement), and generating synthetic corpora with a simulated
detector to exercise the whole pipeline end to end.
"""

__version__ = "0.1.0"

from .anchorlab import (
    Anchor,
    AnchorError,
    AnchorSet,
    CoverageDiagnostic,
    DarknetConfigFragment,
    centered_iou,
    coverage,
    emit_darknet_fragment,
    kmeans_anchors,
    linefit_anchors,
    parse_darknet_fragment,
)
from .annotations import (
    BoundingBox,
    Dataset,
    DatasetError,
    Detection,
    GroundTruthBox,
    ImageAnnotations,
    ImageDetections,
    ParseError,
    load_dataset,
    load_predictions_dir,
    parse_ground_truth,
    parse_predictions,
    save_dataset,
    save_predictions,
)
from .datastats import (
    DatasetStats,
    ImageStats,
    StatsError,
    compute_stats,
    extract_dims,
    flag_outliers,
)
from .evalcore import (
    EvalError,
    EvalReport,
    PRCurve,
    Verdicts,
    average_precision,
    count_regression,
    evaluate,
    iou,
    match_detections,
    mean_average_precision,
)
from .synthgen import DetectorNoise, SynthConfig, SynthError, generate_dataset, simulate_detector

__all__ = [
    "__version__",
    "Anchor",
    "AnchorError",
    "AnchorSet",
    "BoundingBox",
    "CoverageDiagnostic",
    "DarknetConfigFragment",
    "Dataset",
    "DatasetError",
    "DatasetStats",
    "Detection",
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
    "centered_iou",
    "compute_stats",
    "count_regression",
    "coverage",
    "emit_darknet_fragment",
    "evaluate",
    "extract_dims",
    "flag_outliers",
    "generate_dataset",
    "iou",
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
