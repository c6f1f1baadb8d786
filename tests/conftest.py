import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import boxlab
from boxlab.annotations import load_dataset, load_predictions_dir
from boxlab.evalcore import iou_matrix

DATA_DIR = Path(__file__).parent / "data"
# The CLI child imports the same boxlab as the tests, also when only
# pytest's own ``pythonpath`` setting put it on sys.path, and fails on a numpy
# RuntimeWarning or a DeprecationWarning as the in-process tests do.
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(boxlab.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
    "PYTHONWARNINGS": "error::RuntimeWarning,error::DeprecationWarning",
}


def run_cli(*argv, cwd=None):
    """Run the CLI as a subprocess; returns (exit_code, stdout, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", "boxlab.cli", *[str(a) for a in argv]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=CLI_ENV,
    )
    return result.returncode, result.stdout, result.stderr


def iou(a, b) -> float:
    """IoU of two (left, top, right, bottom) rows: ``iou_matrix`` on 1-row arrays."""
    return float(iou_matrix(np.array([a], dtype=float), np.array([b], dtype=float))[0, 0])


def traced_peak(call):
    """``call()``'s result and the most memory, in bytes, it held at once (tracemalloc)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_corpus(directory: Path, files: dict[str, str]) -> Path:
    """Write <image_id>.txt files with the given text contents."""
    directory.mkdir(parents=True, exist_ok=True)
    for image_id, text in files.items():
        (directory / f"{image_id}.txt").write_text(text, encoding="utf-8")
    return directory


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def worked_example():
    """The 2-ground-truth / 3-detection instance with AP 5/6."""
    gt = load_dataset(DATA_DIR / "worked_example" / "gt")
    preds = load_predictions_dir(DATA_DIR / "worked_example" / "pred")
    return gt, preds
