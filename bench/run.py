"""Run the repository benchmark.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace [0|1]] [--scale F] [-o OUT]

Each workload runs in its own fresh subprocess (single-threaded, a
closed loop with one caller).  ``--trace`` runs it twice, each run
measuring for half of ``--seconds``: untraced, for the end-to-end
numbers and the simulated attribution, then traced, for the host spans;
``trace.overhead_ratio`` compares the two.

Every metric is printed as ``workload metric value unit n=<samples>``,
the run's record is written as JSON (default ``bench/out/``), and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics, or
with ``--trace`` the per-layer ones.  The exit code is non-zero when any
op or correctness gate failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
#: hard limit on one workload's subprocesses together
WORKLOAD_TIMEOUT_S = 170


def _child(args: argparse.Namespace) -> int:
    """Subprocess entry: run one workload, print its record as JSON."""
    from measure import run_workload
    tracer = uninstall = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
    try:
        record = run_workload(args.workload, args.seed, args.scale,
                              args.seconds, tracer)
    finally:
        if uninstall:
            uninstall()
    if tracer and args.trace_file:
        Path(args.trace_file).write_text(json.dumps(tracer.chrome_trace()))
    print(json.dumps(record))
    return 0


def _spawn(args: argparse.Namespace, workload: str, trace: bool,
           trace_file: Path | None, deadline: float) -> dict | None:
    seconds = args.seconds / 2 if args.trace else args.seconds
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--scale", str(args.scale), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {WORKLOAD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: subprocess exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _run_one(args: argparse.Namespace, workload: str) -> dict | None:
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    record = _spawn(args, workload, False, None, deadline)
    if record is None or not record["correct"] or not args.trace:
        return record
    trace_file = OUT_DIR / f"trace-{workload}-seed{args.seed}.json"
    traced = _spawn(args, workload, True, trace_file, deadline)
    if traced is None:
        return None
    record["attempted"] += traced["attempted"]
    record["failed"] += traced["failed"]
    record["errors"] += traced["errors"]
    if not traced["correct"]:
        record["correct"] = False
        return record
    record["per_layer"].update(
        (k, v) for k, v in traced["per_layer"].items()
        if k not in record["per_layer"])
    ratio = (record["end_to_end"]["ops_per_host_s"]["value"]
             / traced["end_to_end"]["ops_per_host_s"]["value"])
    record["per_layer"]["trace.overhead_ratio"] = {
        "value": ratio, "unit": "ratio",
        "n": traced["end_to_end"]["ops_per_host_s"]["n"]}
    record["trace_diagnostics"] = traced["diagnostics"]
    record["trace_file"] = str(trace_file.relative_to(BENCH_DIR.parent))
    return record


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']} n={m['n']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads and report every metric.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep measuring host time for at least this "
                             "long, split between the two runs with "
                             "--trace (the simulated window always runs "
                             "once per run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run traced and report "
                                             "the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's op count")
    parser.add_argument("-o", "--output", type=Path,
                        help="result JSON (default bench/out/...)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.seconds < 0:
        parser.error("--scale must be > 0 and --seconds >= 0")
    if args.child:
        return _child(args)

    OUT_DIR.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    for workload in names:
        record = _run_one(args, workload)
        if record is None:
            return 2          # crashed or timed out: no result to report
        records[workload] = record
        for err in record["errors"]:
            print(f"{workload} FAILED {err}", file=sys.stderr)
        if record["correct"]:
            _print_metrics(workload, record["end_to_end"])
            if args.trace:
                _print_metrics(workload, record["per_layer"])
        print(f"{workload} fail_rate "
              f"{record['failed'] / max(record['attempted'], 1):.6g} ratio "
              f"n={record['attempted']}")

    output = args.output or OUT_DIR / (
        f"{args.workload or 'all'}-seed{args.seed}"
        f"{'-trace' if args.trace else ''}.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(
        {"seed": args.seed, "scale": args.scale, "seconds": args.seconds,
         "trace": bool(args.trace), "workloads": records}, indent=1))

    correct = all(r["correct"] for r in records.values())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    if correct:
        for workload, record in records.items():
            prefix = "" if len(records) == 1 else f"{workload}/"
            metrics.update(
                (prefix + name, {"value": m["value"], "unit": m["unit"]})
                for name, m in record[section].items())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
