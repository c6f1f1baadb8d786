"""What ``perfbench/tracing.py`` and ``perfbench/checks.py`` need from boxlab.

The tracer patches the functions it names by attribute and reads some of
their arguments by parameter name, and the output checks read each
ground-truth box's class. A rename in boxlab would otherwise break a traced
run or the checks without failing any test here.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from boxlab.annotations import ImageAnnotations

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"

# The argument ``_count_layer_work`` reads from each call it binds.
ARGUMENT_READ = {
    "anchorlab.linefit_anchors": "n_total",
    "evalcore.evaluate": "gt",
    "reports.atomic_write": "text",
}


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py loaded from its path, without writing a bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists(tracing):
    for module_name, names in tracing.WRAPPED.items():
        module = importlib.import_module(f"boxlab.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"boxlab.{module_name}.{name}"


def test_functions_whose_arguments_are_read_bind_them(tracing):
    for qualified in tracing.NEEDS_ARGUMENTS:
        module_name, name = qualified.split(".")
        function = getattr(importlib.import_module(f"boxlab.{module_name}"), name)
        assert ARGUMENT_READ[qualified] in inspect.signature(function).parameters, qualified


def test_ground_truth_boxes_carry_their_class_name():
    ann = ImageAnnotations("img", ["head", "leaf"], [[0, 0, 1, 1], [1, 1, 3, 3]])
    assert [box.class_name for box in ann.boxes] == ["head", "leaf"]
