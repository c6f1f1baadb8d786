"""Compare two commits with the benchmark: paired runs, then a verdict per metric.

Run pairs (each side from its own checkout root, with this benchmark's code):

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --workload count-dense --pairs 10 --out cmp

Report (one row per workload; exit status 1 on any regression):

    python3 perfbench/compare.py report cmp

Pair i uses seed ``first_seed + i`` on both sides, and the side that runs
first alternates from pair to pair.  Verdicts, for lower-is-better metrics:

* gain: the change wins at least 9/10 of the pairs (ties count for neither)
  and its median is below the parent's by more than the parent's IQR;
* regressed: the change's median exceeds the parent's by more than the
  metric's bound from BENCHMARK.json;
* unresolved: the parent's IQR exceeds the bound (as a share of its median)
  and not every change run beats every parent run;
* same: none of the above.

Per-command times (``eval_s`` ...) and RSS from each record's detail are
judged with the bound of ``pipeline_s`` and ``peak_rss_mb`` respectively;
``failed_frac`` regresses when the change fails more often than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def run_pairs(args) -> int:
    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workload:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                done = subprocess.run(command, cwd=roots[side], capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or len(lines) < 2:
                    print(f"{side} {workload} seed {seed} failed:\n{done.stderr}", file=sys.stderr)
                    return 1
                entry = {"workload": workload, "pair": pair, "seed": seed,
                         "ran_first": position == 0, "record": json.loads(lines[-2])}
                with (args.out / f"{side}.jsonl").open("a") as fh:
                    fh.write(json.dumps(entry) + "\n")
                print(f"{workload} pair {pair} {side}: {lines[-1]}", flush=True)
    return 0


def _values(record: dict) -> dict[str, float]:
    values = {name: m["value"] for name, m in record["metrics"].items()}
    for name, value in record["detail"].items():
        if name.endswith(("_s", "_rss_mb")) and isinstance(value, (int, float)):
            values.setdefault(name, value)
    values["failed_frac"] = record["detail"]["failed_frac"]
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], bound: float) -> dict:
    """Judge one lower-is-better metric over paired runs."""
    p1, p_med, p3 = _quartiles(parent)
    c1, c_med, c3 = _quartiles(change)
    wins = sum(c < p for p, c in zip(parent, change))
    iqr = p3 - p1
    if c_med > p_med * (1 + bound):
        label = "regressed"
    elif wins >= 0.9 * len(parent) and p_med - c_med > iqr:
        label = "gain"
    elif p_med and iqr / p_med > bound and not max(change) < min(parent):
        label = "unresolved"
    else:
        label = "same"
    return {"verdict": label, "parent": [p1, p_med, p3], "change": [c1, c_med, c3],
            "wins": wins, "pairs": len(parent),
            "delta": (c_med - p_med) / p_med if p_med else 0.0}


def report(results: Path, as_json: bool = False) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {side: {} for side in SIDES}
    for side in SIDES:
        for line in (results / f"{side}.jsonl").read_text().splitlines():
            entry = json.loads(line)
            runs[side][(entry["workload"], entry["pair"])] = _values(entry["record"])
    rows, failing = {}, False
    for workload in sorted({w for w, _ in runs["parent"]}):
        keys = sorted(k for k in runs["parent"] if k[0] == workload and k in runs["change"])
        parent = [runs["parent"][k] for k in keys]
        change = [runs["change"][k] for k in keys]
        row = {}
        for name in parent[0]:
            p = [v[name] for v in parent]
            c = [v[name] for v in change]
            if name == "failed_frac":
                worse = statistics.mean(c) > statistics.mean(p)
                row[name] = {"verdict": "regressed" if worse else "same",
                             "parent": statistics.mean(p), "change": statistics.mean(c)}
            else:
                bound = bounds.get(name) or bounds[
                    "peak_rss_mb" if name.endswith("_rss_mb") else "pipeline_s"]
                row[name] = verdict(p, c, bound)
            failing |= row[name]["verdict"] == "regressed"
        rows[workload] = row
    if as_json:
        print(json.dumps(rows, indent=1))
    else:
        for workload, row in rows.items():
            cells = []
            for name, v in row.items():
                if name == "failed_frac":
                    cells.append(f"{name} {v['parent']:.3g}->{v['change']:.3g} {v['verdict']}")
                else:
                    cells.append(f"{name} {v['delta']:+.1%} {v['verdict']} "
                                 f"{v['wins']}/{v['pairs']}")
            print(f"{workload}: " + " | ".join(cells))
    return 1 if failing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run paired benchmark runs on two checkouts")
    run.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    run.add_argument("--change", type=Path, required=True, help="changed checkout root")
    run.add_argument("--workload", action="append", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=100)
    run.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--out", type=Path, required=True, help="directory for the result sets")
    rep = commands.add_parser("report", help="compare the result sets in a directory")
    rep.add_argument("results", type=Path)
    rep.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_pairs(args)
    return report(args.results, args.json)


if __name__ == "__main__":
    sys.exit(main())
