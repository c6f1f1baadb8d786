"""The benchmark's workloads: the corpora each one synthesises and the
boxlab commands it then runs on them, in order.

Every operation is one ``boxlab`` CLI invocation, described by an ``Op``
that carries both its argv and the parameters the output checks need.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path

WORKLOADS = ("count-dense", "anchors-dense", "detect-sparse")

# Images per corpus at each scale; "tiny" is the smoke mode.  "full" is a
# quarter of the ROADMAP baseline corpus: on a shared 2-core host the speed
# drifts by up to 1.5x over tens of seconds, so steady medians need a run to
# repeat its commands for ~25 s, and 70 runs must fit in under an hour.
IMAGES = {
    "full": {"count-dense": 250, "anchors-dense": 250, "detect-sparse": 500},
    "tiny": {"count-dense": 20, "anchors-dense": 20, "detect-sparse": 20},
}

# The ROADMAP baseline seed.  anchors-dense always uses it, whatever the
# workload seed: the 1-IoU k-means iteration count swings from 24 to 184
# across corpus seeds, so a seeded corpus would make anchors time a lottery
# rather than a measurement.
BASELINE_SEED = 42

# Three single-class corpora merged image by image into one general-detection
# corpus: distinct width ranges and aspect ratios, about 6 boxes per image.
SPARSE_CLASSES = (
    dict(class_name="pedestrian", width_range=(12.0, 48.0), line_slope=2.4,
         line_intercept=0.0, residual_sd=4.0),
    dict(class_name="vehicle", width_range=(40.0, 220.0), line_slope=0.55,
         line_intercept=5.0, residual_sd=6.0),
    dict(class_name="sign", width_range=(10.0, 36.0), line_slope=1.0,
         line_intercept=0.0, residual_sd=1.5),
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``name`` is unique in a workload, ``kind`` is the command."""

    name: str
    kind: str
    argv: tuple[str, ...]
    out: Path
    params: dict = field(default_factory=dict)


def _num(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def synth_op(name: str, out: Path, config: dict, noise: dict | None) -> Op:
    """``boxlab synth`` with every generator field spelled out on the command line."""
    from boxlab.synthgen import DetectorNoise, SynthConfig

    cfg = asdict(SynthConfig(**config))
    argv = [
        "synth", "--out", str(out),
        "--images", _num(cfg["n_images"]),
        "--image-width", _num(cfg["image_width"]),
        "--image-height", _num(cfg["image_height"]),
        "--count-mean", _num(cfg["count_mean"]),
        "--count-sd", _num(cfg["count_sd"]),
        "--width-min", _num(cfg["width_range"][0]),
        "--width-max", _num(cfg["width_range"][1]),
        "--slope", _num(cfg["line_slope"]),
        "--intercept", _num(cfg["line_intercept"]),
        "--residual-sd", _num(cfg["residual_sd"]),
        "--class-name", cfg["class_name"],
        "--seed", _num(cfg["seed"]),
    ]
    if noise is not None:
        det = asdict(DetectorNoise(**noise))
        argv += [
            "--simulate",
            "--miss-rate", _num(det["miss_rate"]),
            "--fp-rate", _num(det["false_positive_rate"]),
            "--jitter", _num(det["jitter_sd"]),
            "--tp-conf", *map(_num, det["tp_confidence"]),
            "--fp-conf", *map(_num, det["fp_confidence"]),
            "--noise-seed", _num(det["seed"]),
        ]
    return Op(name, "synth", tuple(argv), out, {"config": config, "noise": noise})


def _manifest_args(manifest: Path | None) -> list[str]:
    return [] if manifest is None else ["--manifest", str(manifest)]


def stats_op(out: Path, gt: Path, manifest: Path | None) -> Op:
    argv = ["stats", str(gt), *_manifest_args(manifest), "--out", str(out)]
    return Op("stats", "stats", tuple(argv), out, {"gt": gt, "manifest": manifest})


def anchors_op(out: Path, gt: Path, manifest: Path | None, method: str, distance: str,
               compare: bool, emit_darknet: bool) -> Op:
    argv = ["anchors", str(gt), *_manifest_args(manifest), "--out", str(out),
            "--method", method, "--distance", distance]
    argv += ["--compare"] * compare + ["--emit-darknet"] * emit_darknet
    params = {"gt": gt, "manifest": manifest, "method": method, "distance": distance,
              "compare": compare, "emit_darknet": emit_darknet}
    return Op("anchors", "anchors", tuple(argv), out, params)


def eval_op(out: Path, gt: Path, pred: Path, manifest: Path | None) -> Op:
    argv = ["eval", str(gt), str(pred), *_manifest_args(manifest), "--out", str(out)]
    return Op("eval", "eval", tuple(argv), out, {"gt": gt, "pred": pred, "manifest": manifest})


@dataclass(frozen=True)
class Plan:
    """A workload instantiated for one seed and scale."""

    workload: str
    n_images: int
    corpus_seed: int

    @property
    def reference_key(self) -> str:
        """Identifies the generated inputs, so equal keys mean byte-equal outputs."""
        return f"{self.workload}/n{self.n_images}/s{self.corpus_seed}"

    def synth_ops(self, setup_dir: Path) -> list[Op]:
        n = self.n_images
        if self.workload == "count-dense":
            noise = dict(miss_rate=0.1, false_positive_rate=5.0, jitter_sd=2.0, seed=1)
            return [synth_op("synth", setup_dir, dict(n_images=n, seed=self.corpus_seed), noise)]
        if self.workload == "anchors-dense":
            return [synth_op("synth", setup_dir, dict(n_images=n, seed=self.corpus_seed), None)]
        ops = []
        for index, cls in enumerate(SPARSE_CLASSES):
            config = dict(n_images=n, image_width=1280.0, image_height=960.0, count_mean=2.0,
                          count_sd=1.2, seed=self.corpus_seed * len(SPARSE_CLASSES) + index,
                          **cls)
            noise = dict(miss_rate=0.1, false_positive_rate=0.55, jitter_sd=1.5, seed=index + 1)
            name = f"synth.{cls['class_name']}"
            ops.append(synth_op(name, setup_dir / cls["class_name"], config, noise))
        return ops

    def corpus(self, setup_dir: Path, work: Path) -> Path:
        """The directory holding ``gt/`` (and ``pred/``) that the commands read."""
        if self.workload != "detect-sparse":
            return setup_dir
        return merge_classes(setup_dir, work / "corpus")

    def command_ops(self, corpus: Path, out: Path) -> list[Op]:
        gt, pred = corpus / "gt", corpus / "pred"
        if self.workload == "count-dense":
            return [stats_op(out / "stats", gt, None), eval_op(out / "eval", gt, pred, None)]
        if self.workload == "anchors-dense":
            return [
                stats_op(out / "stats", gt, None),
                anchors_op(out / "anchors", gt, None, "linefit", "one_minus_iou",
                           compare=True, emit_darknet=True),
            ]
        manifest = gt / "manifest.csv"
        return [
            stats_op(out / "stats", gt, manifest),
            anchors_op(out / "anchors", gt, manifest, "kmeans", "euclidean",
                       compare=False, emit_darknet=False),
            eval_op(out / "eval", gt, pred, manifest),
        ]


def make_plan(workload: str, seed: int, scale: str = "full") -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    corpus_seed = BASELINE_SEED if workload == "anchors-dense" else seed
    return Plan(workload, IMAGES[scale][workload], corpus_seed)


def merge_classes(setup_dir: Path, dest: Path) -> Path:
    """Concatenate the per-class corpora file by file, classes in a fixed order."""
    if dest.exists():
        shutil.rmtree(dest)
    sources = [setup_dir / cls["class_name"] for cls in SPARSE_CLASSES]
    for sub in ("gt", "pred"):
        (dest / sub).mkdir(parents=True)
        for path in sorted((sources[0] / sub).glob("*.txt")):
            text = "".join((src / sub / path.name).read_text(encoding="utf-8") for src in sources)
            (dest / sub / path.name).write_text(text, encoding="utf-8", newline="\n")
    manifests = {(src / "gt" / "manifest.csv").read_text(encoding="utf-8") for src in sources}
    if len(manifests) != 1:
        raise ValueError("per-class corpora disagree on image dimensions")
    (dest / "gt" / "manifest.csv").write_text(manifests.pop(), encoding="utf-8", newline="\n")
    return dest
