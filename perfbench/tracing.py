"""Per-layer spans and counters, recorded from outside the program.

``Tracer.installed()`` replaces the public functions of each boxlab module
with timing wrappers, both where they are defined and wherever another boxlab
module imported them by name, so internal calls (``mean_average_precision``
calling ``match_detections``) are caught as well as the CLI's own.  Per-record
helpers such as ``render_cell`` and ``_parse_number`` are left alone: wrapping
them would cost more than the work they do.

A span is ``[name, start, end, parent]``; spans stay in memory until the run
writes them out.  A layer's self time is its spans' duration minus the time
their child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import Counter

WRAPPED = {
    "annotations": ("load_dataset", "load_predictions_dir", "save_dataset", "save_predictions"),
    "synthgen": ("generate_dataset", "simulate_detector"),
    "datastats": ("compute_stats", "flag_outliers", "histogram", "extract_dims"),
    "anchorlab": ("run_kmeans", "linefit_anchors", "coverage", "emit_darknet_fragment"),
    "evalcore": ("evaluate", "mean_average_precision", "match_detections", "average_precision"),
    "reports": ("write_csv", "atomic_write"),
    "svgplot": ("scatter_svg", "line_svg", "histogram_svg"),
    "cli": ("main", "cmd_stats", "cmd_anchors", "cmd_eval", "cmd_synth"),
}

# (name, unit, better) of every per-layer metric, in report order.
_TIMED = [f"{mod}.{fn}.s" for mod, fns in WRAPPED.items() if mod != "cli" for fn in fns]
LAYER_METRICS = (
    [(name, "s", "lower") for name in _TIMED]
    + [
        ("annotations.files_read", "count", "lower"),
        ("annotations.boxes_read", "count", "lower"),
        ("datastats.dims_inferred_images", "count", "lower"),
        ("anchorlab.run_kmeans.iterations", "count", "lower"),
        ("anchorlab.run_kmeans.capped", "count", "lower"),
        ("anchorlab.linefit_anchors.collapsed", "count", "lower"),
        ("evalcore.match_detections.calls", "count", "lower"),
        ("evalcore.match_calls_per_image_class", "ratio", "lower"),
        ("reports.write_csv.calls", "count", "lower"),
        ("reports.bytes_written", "bytes", "lower"),
        ("svgplot.bytes", "bytes", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


# Spans whose counters need the call's arguments, not only its result.
NEEDS_ARGUMENTS = ("anchorlab.linefit_anchors", "evalcore.evaluate", "reports.atomic_write")


def _count_layer_work(name: str, args: dict, result, counts: Counter) -> None:
    """Counters taken at the layer boundary from a call's arguments and result."""
    if name == "annotations.load_dataset":
        counts["annotations.files_read"] += len(result)
        counts["annotations.boxes_read"] += result.total_boxes
    elif name == "annotations.load_predictions_dir":
        counts["annotations.files_read"] += len(result)
        counts["annotations.boxes_read"] += sum(len(p) for p in result.values())
    elif name == "datastats.compute_stats":
        counts["datastats.dims_inferred_images"] += sum(s.dims_inferred for s in result.per_image)
    elif name == "anchorlab.run_kmeans":
        from boxlab.anchorlab import KMEANS_MAX_ITERATIONS

        iterations = len(result.objective_history)
        counts["anchorlab.run_kmeans.iterations"] += iterations
        counts["anchorlab.run_kmeans.capped"] += iterations >= KMEANS_MAX_ITERATIONS
    elif name == "anchorlab.linefit_anchors":
        counts["anchorlab.linefit_anchors.collapsed"] += args["n_total"] - len(result)
    elif name == "evalcore.evaluate":
        gt = args["gt"]
        classes = {b.class_name for ann in gt for b in ann.boxes}
        counts["evalcore.image_class_pairs"] += len(gt) * len(classes)
    elif name == "reports.atomic_write":
        counts["reports.bytes_written"] += len(args["text"].encode("utf-8"))
    elif name.startswith("svgplot."):
        counts["svgplot.bytes"] += len(result.encode("utf-8"))


class Tracer:
    """Collects spans and counters while installed; not thread-safe (none is needed)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            arguments = {}
            if name in NEEDS_ARGUMENTS:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            _count_layer_work(name, arguments, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped function in every loaded boxlab module; restore on exit."""
        for mod in WRAPPED:
            importlib.import_module(f"boxlab.{mod}")
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "boxlab"]
        patched = []
        try:
            for mod, names in WRAPPED.items():
                defining = sys.modules[f"boxlab.{mod}"]
                for fn_name in names:
                    original = getattr(defining, fn_name)
                    wrapper = self._wrap(f"{mod}.{fn_name}", original)
                    for module in modules:
                        if getattr(module, fn_name, None) is original:
                            setattr(module, fn_name, wrapper)
                            patched.append((module, fn_name, original))
            yield self
        finally:
            for module, fn_name, original in reversed(patched):
                setattr(module, fn_name, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return dict(totals)

    def layer_metrics(self, import_s: float, overhead_s: float) -> dict[str, float]:
        own = self.self_times()
        values = {name: own.get(name[: -len(".s")], 0.0) for name in _TIMED}
        values.update({name: self.counts.get(name, 0) for name, unit, _ in LAYER_METRICS
                       if unit in ("count", "bytes")})
        pairs = self.counts["evalcore.image_class_pairs"]
        values["evalcore.match_calls_per_image_class"] = (
            self.counts["evalcore.match_detections.calls"] / pairs if pairs else 0.0
        )
        values["cli.self_s"] = sum(t for name, t in own.items() if name.startswith("cli."))
        values["cli.import_s"] = import_s
        values["trace.overhead_s"] = overhead_s
        return values

    def dump(self) -> list[list]:
        """Spans with times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]
