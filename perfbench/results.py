"""Collect and compare result sets of the thermobit benchmark.

    python3 perfbench/results.py collect --out perfbench/baseline/NAME.json \
        [--seeds 1-10] [--traced-seeds 1] [--note TEXT]
    python3 perfbench/results.py compare A.json B.json

`collect` runs perfbench/run.py once per (workload, seed) on every
workload in BENCHMARK.json, with its run length. It stores every result
line with the environment block and, under `raw`, the unscaled timings and
the calibration kernel's median that the run printed. It prints each
end-to-end metric's median, quartiles and spread (quartile distance over
median) against the metric's bound, and the spread of the raw timing next
to it.

`compare` prints, for each (workload, metric) pair, the median and
quartiles of each side and the change of the medians. It flags a metric
whose median got worse by more than its bound, and one whose change is
smaller than the first side's own quartile distance (unresolved).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(values: list[float]) -> float:
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / med if med else float("nan")


def _series(runs: list[dict], trace: int, field: str = "metrics") -> dict[tuple[str, str], list[float]]:
    """Each (workload, metric)'s values over the runs; `field` "raw" gives
    the unscaled timings instead."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        metrics = run["result"]["metrics"] if field == "metrics" else run.get(field, {})
        for name, m in metrics.items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def _run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    # "  raw <metric> <value> <unit> (n=<samples>)"
    raw = {}
    for line in lines:
        fields = line.split()
        if fields[:1] == ["raw"]:
            raw[fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
    return json.loads(lines[-1]), raw, env


def collect(args) -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    plan = [(w, s, 0) for w in workloads for s in _seeds(args.seeds)]
    plan += [(w, s, 1) for w in workloads for s in _seeds(args.traced_seeds)] if args.traced_seeds else []
    runs, environment = [], None
    for workload, seed, trace in plan:
        result, raw, env = _run_once(workload, seed, spec["run_seconds"], trace)
        environment = environment or env
        run = {"workload": workload, "seed": seed, "trace": trace, "result": result}
        if raw:
            run["raw"] = raw
        runs.append(run)
        print(f"{workload:<11} seed {seed:<3} trace {trace}  correct {result['correct']}  "
              f"attempted {result['attempted']}  failed {result['failed']}", flush=True)
    out = {"note": args.note, "environment": environment, "run_seconds": spec["run_seconds"],
           "command": spec["command"], "runs": runs}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw_series = _series(runs, 0, field="raw")
    print(f"\n{'workload':<11} {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} {'raw spread':>10}")
    for key, values in sorted(_series(runs, 0).items()):
        workload, name = key
        spread = _spread(values)
        raw_spread = f"{_spread(raw_series[key]):.4f}" if key in raw_series else "-"
        q1, med, q3 = _quartiles(values)
        flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above a third of its bound"
        print(f"{workload:<11} {name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bounds[name]:>6} {raw_spread:>10}{flag}")
    return 0


def compare(args) -> int:
    spec = _spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs = json.loads(Path(args.a).read_text(encoding="utf-8"))["runs"]
    b_runs = json.loads(Path(args.b).read_text(encoding="utf-8"))["runs"]
    status = 0
    for trace in (0, 1):
        a, b = _series(a_runs, trace), _series(b_runs, trace)
        keys = sorted(set(a) | set(b))
        if not keys:
            continue
        print(f"\n{'end-to-end' if trace == 0 else 'per-layer (traced)'} metrics")
        print(f"{'workload':<11} {'metric':<46} {'A median [q1, q3] n':>38} {'B median [q1, q3] n':>38} {'change':>9}")
        for key in keys:
            cells = []
            for side in (a, b):
                values = side.get(key)
                if values:
                    q1, med, q3 = _quartiles(values)
                    cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(values)}")
                else:
                    cells.append("-")
            note, change = "", ""
            if key in a and key in b:
                a_q1, a_med, a_q3 = _quartiles(a[key])
                b_med = _quartiles(b[key])[1]
                if a_med:
                    change = f"{(b_med - a_med) / abs(a_med):+.2%}"
                meta = metrics.get(key[1], {})
                if "bound" in meta and a_med:
                    worse = (b_med - a_med) if meta["better"] == "lower" else (a_med - b_med)
                    if worse > meta["bound"] * abs(a_med):
                        note, status = "  WORSE than bound", 1
                    elif b_med == a_med:
                        note = "  same median"
                    elif abs(b_med - a_med) <= a_q3 - a_q1:
                        note = "  unresolved (within A's quartile distance)"
            print(f"{key[0]:<11} {key[1]:<46} {cells[0]:>38} {cells[1]:>38} {change:>9}{note}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--traced-seeds", default="")
    c.add_argument("--note", default="", help="what was measured, e.g. the commit")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
