#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root::

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/baseline.json

Each (workload, seed) is one ``perfbench/run.py`` process, run one after
another.  For every workload and metric the summary gives the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
``(Q3 - Q1) / median``, beside the metric's bound from ``BENCHMARK.json``.
``--out`` writes the summary and every run record as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result, record) of one benchmark process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record: "))
    return json.loads(lines[-1]), record


def summarise(values: list, bound) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "bound": bound,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary, records = {}, []
    for workload in workloads:
        values, failed, attempted = {}, 0, 0
        for seed in parse_seeds(args.seeds):
            result, record = run_one(workload, seed, args.seconds, args.trace)
            records.append(record)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.5g}"
                             for k, m in result["metrics"].items()),
                  flush=True)
        summary[workload] = {"failed": failed, "attempted": attempted,
                             "metrics": {k: summarise(v, bounds.get(k))
                                         for k, v in values.items()}}
        for name, s in summary[workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload} {name}: median {s['median']:.6g}  "
                  f"IQR/median {spread}  bound {s['bound']}")

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "trace": args.trace,
             "seconds": args.seconds, "summary": summary,
             "records": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
