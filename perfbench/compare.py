"""Compare two result sets from ``perfbench/suite.py``: parent against change.

    python3 perfbench/compare.py perfbench/out/parent.jsonl perfbench/out/change.jsonl

One row per workload and end-to-end metric: each side's median and
quartiles, the share of pairs the change won (runs paired by seed), and a
verdict against the metric's bound in BENCHMARK.json:

- improved: the change won at least nine tenths of the pairs and the medians
  differ by more than the parent's own quartile spread;
- worse: the change's median is worse than the parent's by more than the bound;
- unresolved: the parent's quartile spread exceeds the bound, unless every
  change run is better than every parent run;
- no worse: otherwise.
"""

from __future__ import annotations

import argparse
import sys

from suite import load_benchmark, load_runs, spread


def better(a, b, direction):
    """True when value a beats value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p_med, p_q1, p_q3, p_spread = spread(parent)
    c_med = spread(change)[0]
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    if win_share >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1 and better(c_med, p_med, direction):
        return win_share, "improved"
    if better(p_med * (1 + bound if direction == "lower" else 1 - bound), c_med, direction):
        return win_share, "worse"
    if p_spread > bound and not all(better(c, p, direction) for c in change for p in parent):
        return win_share, "unresolved"
    return win_share, "no worse"


def by_seed(runs, workload, metric):
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and r["trace"] == 0 and metric in r["result"]["metrics"]
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="result set of the parent commit")
    parser.add_argument("change", help="result set of the change")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    print(
        f"{'workload':18} {'metric':18} {'unit':6} {'parent median [q1, q3]':34} "
        f"{'change median [q1, q3]':34} {'won':>5} verdict"
    )
    worse = 0
    for wl in bench["workloads"]:
        for m in bench["end_to_end"]:
            p, c = by_seed(parent_runs, wl["name"], m["name"]), by_seed(change_runs, wl["name"], m["name"])
            seeds = sorted(set(p) & set(c))
            if not seeds:
                continue
            parent, change = [p[s] for s in seeds], [c[s] for s in seeds]
            win_share, word = verdict(parent, change, m["better"], m["bound"])
            worse += word == "worse"
            ps, cs = spread(parent), spread(change)
            print(
                f"{wl['name']:18} {m['name']:18} {m['unit']:6} "
                f"{ps[0]:10.5g} [{ps[1]:9.5g}, {ps[2]:9.5g}] "
                f"{cs[0]:10.5g} [{cs[1]:9.5g}, {cs[2]:9.5g}] {win_share:5.2f} {word}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
