"""Run every workload, one process each, and print every end-to-end metric.

    python3 perfbench/suite.py --seeds 1 2 3 --out perfbench/out/change.jsonl

Each run appends one JSON line to ``--out`` holding the workload, seed,
trace flag, the run's detail object and its result object. The table lists,
per workload and metric, the median, the quartiles, their spread as a share
of the median, and the sample count. Two such files are compared with
``perfbench/compare.py``.
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


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(bench, workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "detail": json.loads(lines[-2]),
        "result": json.loads(lines[-1]),
    }


def load_runs(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_values(runs, workload, metric, trace=0):
    return [
        r["result"]["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and r["trace"] == trace and metric in r["result"]["metrics"]
    ]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def print_table(bench, runs):
    print(f"{'workload':18} {'metric':18} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} n")
    for wl in bench["workloads"]:
        for m in bench["end_to_end"]:
            values = metric_values(runs, wl["name"], m["name"])
            if not values:
                continue
            med, q1, q3, sp = spread(values)
            flag = "" if sp <= m["bound"] / 3 else "  > bound/3"
            print(
                f"{wl['name']:18} {m['name']:18} {m['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{sp:7.3f} {m['bound']:6.2f} {len(values)}{flag}"
            )
    bad = [r for r in runs if not r["result"]["correct"]]
    for r in bad:
        print(f"WRONG ANSWER: {r['workload']} seed {r['seed']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results.jsonl")
    parser.add_argument("--report", action="store_true", help="print the table of --out without running")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if not args.report:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]
        for seed in args.seeds:
            for workload in workloads:
                record = run_one(bench, workload, seed, args.trace)
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                metrics = record["result"]["metrics"]
                shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items() if "." not in k)
                print(f"{workload} seed {seed}: {shown}", flush=True)
    print_table(bench, load_runs(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
