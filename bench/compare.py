"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py --parent P1.json P2.json ... \\
                             --change C1.json C2.json ... [--same-sim]

Each file is a result JSON written by ``bench/run.py``.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the fraction of pairs the change wins
(runs are paired by seed, ties count for neither) and a verdict:

* ``unresolved`` -- either side's run-to-run spread (quartile distance
  over median) is wider than the metric's bound, and not every change
  run is better than every parent run;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``improved`` -- the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile distance;
* ``within bound`` -- otherwise.

``--same-sim`` also requires every (workload, seed) present on both
sides to carry the same simulated-statistics digest, as a change that
only speeds up the simulator must.  The exit code is non-zero on any
regression, a higher failure rate, or a digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: share of pairs the change must win to claim an improvement
WIN_SHARE = 0.9


def load(paths: list[Path]) -> dict[str, list[dict]]:
    """workload → list of per-run records (correct runs only count for
    metrics; every run counts for the failure rate)."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        data = json.loads(path.read_text())
        for workload, record in data["workloads"].items():
            runs.setdefault(workload, []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs by seed, in the order given within a seed."""
    by_seed: dict[int, list[dict]] = {}
    for record in change:
        by_seed.setdefault(record["seed"], []).append(record)
    out = []
    for record in parent:
        mates = by_seed.get(record["seed"])
        if mates:
            out.append((record, mates.pop(0)))
    return out


def verdict(p_vals: list[float], c_vals: list[float], wins: float,
            bound: float, higher_better: bool) -> str:
    sign = 1 if higher_better else -1
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = (min(c_vals) > max(p_vals) if higher_better
                  else max(c_vals) < min(p_vals))
    if spread > bound and not all_better:
        return "unresolved"
    change = sign * (cm - pm) / abs(pm) if pm else 0.0
    if change < -bound:
        return "regressed"
    if wins >= WIN_SHARE and sign * (cm - pm) > p3 - p1:
        return "improved"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark results.")
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--same-sim", action="store_true",
                        help="require identical simulated digests per seed")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text())
    parent, change = load(args.parent), load(args.change)
    if min(len(args.parent), len(args.change)) < 10:
        print("warning: fewer than 10 runs per side; an improvement needs "
              f"{WIN_SHARE:.0%} of pairs", file=sys.stderr)

    bad = False
    print(f"{'workload':13} {'metric':18} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'wins':>6}  "
          f"verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        rates = [sum(r["failed"] for r in runs)
                 / max(1, sum(r["attempted"] for r in runs))
                 for runs in (p_runs, c_runs)]
        if rates[1] > rates[0]:
            print(f"{workload}: failure rate rose {rates[0]:.4g} -> "
                  f"{rates[1]:.4g}")
            bad = True
        if args.same_sim:
            for p, c in pairs(p_runs, c_runs):
                if p.get("sim_digest") != c.get("sim_digest"):
                    print(f"{workload} seed {p['seed']}: simulated digests "
                          f"differ")
                    bad = True
        ok_pairs = [(p, c) for p, c in pairs(p_runs, c_runs)
                    if p["correct"] and c["correct"]]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            higher = metric["better"] == "higher"
            p_vals = [r["end_to_end"][name]["value"] for r in p_runs
                      if r["correct"]]
            c_vals = [r["end_to_end"][name]["value"] for r in c_runs
                      if r["correct"]]
            if not p_vals or not c_vals:
                print(f"{workload:13} {name:18} no correct runs")
                bad = True
                continue
            won = sum(
                1 for p, c in ok_pairs
                if (c["end_to_end"][name]["value"]
                    > p["end_to_end"][name]["value"]) == higher
                and c["end_to_end"][name]["value"]
                != p["end_to_end"][name]["value"])
            wins = won / len(ok_pairs) if ok_pairs else 0.0
            result = verdict(p_vals, c_vals, wins, bound, higher)
            bad |= result == "regressed"
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            delta = (cm - pm) / abs(pm) * 100 if pm else 0.0
            p_cell = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
            c_cell = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
            print(f"{workload:13} {name:18} {p_cell:>32} {c_cell:>32} "
                  f"{delta:>+7.2f}% {wins:>6.0%}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
