"""boxlab benchmark: end-to-end CLI wall time and peak RSS, or per-layer times.

Run from the repository root:

    python3 perfbench/run.py --workload count-dense --seed 1 --seconds 25 --trace 0

With ``--trace 0`` one process runs the real ``boxlab`` CLI as subprocesses,
one command at a time, each started after the previous one exited (a closed
loop with one client).  It first synthesises the workload's corpus several
times (``setup_s`` is the median), then repeats the workload's commands
until the next repetition would overrun ``--seconds`` (at least once).
Reported times are scaled to a reference host speed (see ``probe_speed``);
the raw wall times are kept in the record.

With ``--trace 1`` the same commands run in-process through
``boxlab.cli.main``, once untraced and once with every layer wrapped in
spans (see ``tracing.py``); the per-layer metrics come from the traced pass
and ``trace.overhead_s`` is the difference between the two.

Every invocation's outputs are checked (see ``checks.py``).  The last stdout
line is the result: ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the full record, which is also saved under
``perfbench/results/`` together with the spans of a traced run.

Other modes: ``--smoke`` runs every workload at 20 images, including one
deliberately corrupted output that must be caught; ``--write-references``
records output digests for the given seeds, after checking each invocation
against the in-process library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import compare
from checks import Verifier, corrupt
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Plan, make_plan

ROOT = Path.cwd()
BENCH = ROOT / "perfbench"
WORK = BENCH / "work" / str(os.getpid())
RESULTS = BENCH / "results"
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
# End-to-end times are reported at this speed-probe time (see probe_speed).
PROBE_REFERENCE_S = 0.010


class HarnessError(Exception):
    """The benchmark cannot run here (no program, or it does not import)."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def require_program() -> None:
    """Make the boxlab sources importable here and compile them once."""
    if not (ROOT / "src" / "boxlab" / "cli.py").is_file():
        raise HarnessError(f"no boxlab sources under {ROOT / 'src'}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", "import boxlab.cli"], env=_child_env(),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise HarnessError(f"boxlab does not import:\n{done.stderr}")


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError):  # no git here, or not a repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_before": os.getloadavg(),
    }


class Launcher:
    """The small child process that starts and times each CLI invocation (launch.py)."""

    def __enter__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        )
        return self

    def __exit__(self, *exc_info):
        self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __call__(self, op) -> dict:
        """One CLI invocation as a child process: wall time and its own peak RSS."""
        op.out.parent.mkdir(parents=True, exist_ok=True)
        stdout, stderr = WORK / "stdout.txt", WORK / "stderr.txt"
        request = {"argv": [sys.executable, "-m", "boxlab.cli", *op.argv],
                   "stdout": str(stdout), "stderr": str(stderr)}
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise HarnessError("the launcher process exited")
        result = json.loads(reply)
        result["stdout"] = stdout.read_text(encoding="utf-8", errors="replace")
        result["stderr"] = stderr.read_text(encoding="utf-8", errors="replace")[-2000:]
        return result


def run_inprocess(op) -> dict:
    """One CLI invocation through ``boxlab.cli.main`` in this process."""
    cli = sys.modules["boxlab.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except Exception:  # a crash is a failed operation, not a harness failure
            traceback.print_exc()
            code = -1
    wall = time.perf_counter() - start
    return {"exit": code, "wall_s": wall, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:]}


def probe_speed(repeats: int = 3) -> float:
    """Seconds for a fixed interpreter-bound task, timed before every operation.

    On a shared host the CPU speed drifts by up to 1.5x over tens of minutes,
    for wall and CPU time alike, with no change in the program.  Scaling a
    run's times by the median probe of that run takes the drift out.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return min(times)


class Run:
    """The operations of one benchmark run and their verdicts."""

    def __init__(self, plan: Plan):
        references = {}
        if REFERENCES.is_file():
            references = json.loads(REFERENCES.read_text()).get(plan.reference_key, {})
        self.verifier = Verifier(references)
        self.ops: list[dict] = []
        self.probes: list[float] = []

    def execute(self, op, phase: str, runner, damage: str | None = None) -> dict:
        self.probes.append(probe_speed())
        result = runner(op)
        if damage is not None:
            corrupt(op.out / damage)
        reason = self.verifier.check(op, result["exit"], result["stdout"])
        entry = {"op": op.name, "phase": phase, "exit": result["exit"],
                 "wall_s": result["wall_s"], "rss_mb": result.get("rss_mb"),
                 "ok": reason is None, "reason": reason}
        if reason is not None:
            entry["stderr"] = result["stderr"]
            print(f"FAILED {op.name} ({phase}): {reason}", file=sys.stderr)
        self.ops.append(entry)
        return entry

    @property
    def failed(self) -> int:
        return sum(not e["ok"] for e in self.ops)


def measure(plan: Plan, seconds: float, min_cycles: int = 1, damage: bool = False):
    """Untraced run: repeated setup, then command cycles in child processes."""
    run = Run(plan)
    with Launcher() as launch:
        setup_totals = []
        for repeat in range(SETUP_REPEATS):
            setup_dir = WORK / f"setup{repeat}"
            os.sync()
            entries = [run.execute(op, f"setup{repeat}", launch)
                       for op in plan.synth_ops(setup_dir)]
            setup_totals.append(sum(e["wall_s"] for e in entries))
            if repeat:
                shutil.rmtree(setup_dir)
        corpus = plan.corpus(WORK / "setup0", WORK)

        cycles: list[list[dict]] = []
        while len(cycles) < min_cycles or (
            sum(e["wall_s"] for c in cycles for e in c)
            + statistics.median(sum(e["wall_s"] for e in c) for c in cycles) <= seconds
        ):
            out = WORK / f"cycle{len(cycles)}"
            first = damage and not cycles
            os.sync()
            cycles.append([
                run.execute(op, f"cycle{len(cycles)}", launch,
                            damage="summary.csv" if first and op.kind == "stats" else None)
                for op in plan.command_ops(corpus, out)
            ])
            shutil.rmtree(out)

    speed_scale = PROBE_REFERENCE_S / statistics.median(run.probes)
    pipeline = [sum(e["wall_s"] for e in c) for c in cycles]
    detail = {"cycles": len(cycles), "speed_scale": speed_scale,
              "wall": {"setup_samples": setup_totals, "pipeline_samples": pipeline}}
    for index, entry in enumerate(cycles[0]):
        wall = statistics.median(c[index]["wall_s"] for c in cycles)
        detail["wall"][f"{entry['op']}_s"] = wall
        detail[f"{entry['op']}_s"] = wall * speed_scale
        detail[f"{entry['op']}_rss_mb"] = statistics.median(c[index]["rss_mb"] for c in cycles)
    metrics = {
        "setup_s": statistics.median(setup_totals) * speed_scale,
        "pipeline_s": statistics.median(pipeline) * speed_scale,
        "peak_rss_mb": statistics.median(max(e["rss_mb"] for e in c) for c in cycles),
    }
    return run, {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END.items()}, detail, None


def replay(run: Run, plan: Plan, where: Path, phase: str) -> float:
    """Setup and commands once, in-process; returns their summed wall time."""
    entries = [run.execute(op, phase, run_inprocess) for op in plan.synth_ops(where / "setup")]
    corpus = plan.corpus(where / "setup", where)
    entries += [run.execute(op, phase, run_inprocess)
                for op in plan.command_ops(corpus, where / "out")]
    shutil.rmtree(where)
    return sum(e["wall_s"] for e in entries)


def trace(plan: Plan):
    """Traced run: fresh-import time, then an untraced and a traced in-process pass."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import boxlab.cli"], env=_child_env(), check=True)
        imports.append(time.perf_counter() - start)
    import boxlab.cli  # noqa: F401  (the in-process passes call it through sys.modules)

    run = Run(plan)
    untraced = replay(run, plan, WORK / "untraced", "untraced")
    tracer = Tracer()
    with tracer.installed():
        traced = replay(run, plan, WORK / "traced", "traced")
    values = tracer.layer_metrics(statistics.median(imports), traced - untraced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    detail = {"untraced_s": untraced, "traced_s": traced, "import_samples": imports}
    return run, metrics, detail, tracer.dump()


def bench(workload: str, seed: int, seconds: float, traced: bool, scale: str = "full",
          min_cycles: int = 1, damage: bool = False) -> dict:
    plan = make_plan(workload, seed, scale)
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    env = environment()
    try:
        if traced:
            run, metrics, detail, spans = trace(plan)
        else:
            run, metrics, detail, spans = measure(plan, seconds, min_cycles, damage)
    finally:
        env["loadavg_after"] = os.getloadavg()
        shutil.rmtree(WORK, ignore_errors=True)
    attempted, failed = len(run.ops), run.failed
    detail["failed_frac"] = failed / attempted
    env["speed_probe_s"] = statistics.median(run.probes)
    env["speed_probe_samples"] = run.probes
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
              "scale": scale, "reference": plan.reference_key,
              "checked_against": "references" if run.verifier.references else "library",
              "env": env, "metrics": metrics, "detail": detail, "ops": run.ops,
              "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                         "metrics": metrics}}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{seed}-t{int(traced)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans))
    return record


def smoke() -> int:
    """Every workload at 20 images, traced and untraced, with one output corrupted."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    pairs = []
    for workload in WORKLOADS:
        record = bench(workload, 3, 0, False, "tiny", min_cycles=2, damage=True)
        pairs.append({"workload": workload, "pair": 0, "record": record})
        bad = [(e["op"], e["phase"]) for e in record["ops"] if not e["ok"]]
        if bad != [("stats", "cycle0")]:
            problems.append(f"{workload}: expected only the corrupted stats output to fail, "
                            f"got {bad}")
        if set(record["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
            problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        record = bench(workload, 3, 0, True, "tiny")
        if not record["result"]["correct"]:
            problems.append(f"{workload}: traced run failed its output checks")
        if set(record["metrics"]) != {m["name"] for m in spec["per_layer"]}:
            problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        print(f"smoke {workload}: ok" if not problems else f"smoke {workload}: {problems}")
    compared = WORK / "compare"
    compared.mkdir(parents=True)
    for side in ("parent", "change"):
        (compared / f"{side}.jsonl").write_text("".join(json.dumps(p) + "\n" for p in pairs))
    if compare.report(compared) != 0:
        problems.append("compare report flags a regression between identical result sets")
    shutil.rmtree(WORK)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def write_references(workload: str, seeds: list[int]) -> int:
    """Record digests for each seed, after every invocation passed the library oracle."""
    for seed in seeds:
        plan = make_plan(workload, seed)
        if WORK.exists():
            shutil.rmtree(WORK)
        WORK.mkdir(parents=True)
        run = Run(plan)
        run.verifier.references = {}
        with Launcher() as launch:
            for op in plan.synth_ops(WORK / "setup"):
                run.execute(op, "setup", launch)
            corpus = plan.corpus(WORK / "setup", WORK)
            for op in plan.command_ops(corpus, WORK / "out"):
                run.execute(op, "commands", launch)
        if run.failed:
            print(f"{plan.reference_key}: not recorded, {run.failed} failed", file=sys.stderr)
            return 1
        references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
        references[plan.reference_key] = run.verifier.verified
        staged = REFERENCES.with_suffix(f".{os.getpid()}.tmp")
        staged.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        staged.replace(REFERENCES)
        print(f"{plan.reference_key}: recorded", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny end-to-end self-test")
    parser.add_argument("--write-references", metavar="SEEDS", type=_seed_list,
                        help="record output digests for seeds such as 0-31,42")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        require_program()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.write_references:
        return write_references(args.workload, args.write_references)
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: v for k, v in record.items() if k != "ops"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
