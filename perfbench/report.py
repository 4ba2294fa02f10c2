"""Run the benchmark over workloads and seeds, one fresh process per run, and print a table of medians and spreads.

    python3 perfbench/report.py                      # every workload, development seed
    python3 perfbench/report.py --seeds 1-10         # ten seeds per workload
    python3 perfbench/report.py --seeds 90001        # the held-out seed
    python3 perfbench/report.py --seeds 1 --trace 1  # per-layer metrics

For each workload and metric it prints the median, the quartiles and the
spread (distance between the quartiles over the median, as
statistics.quantiles(values, n=4) gives them) of the per-run values, next to
the metric's bound from BENCHMARK.json. failed_ratio is failed over attempted
task runs, summed over the runs.
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
DEV_SEED = 1
HELD_OUT_SEED = 90001  # not used while writing changes; confirm a claimed gain on it too


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = json.loads(lines[-2])
    return result


def spread(values: list) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance over the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(DEV_SEED), help=f"e.g. 1-10, or {HELD_OUT_SEED} (the held-out seed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(r)
            print(f"# {workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} passes={r['summary']['passes']} digest={r['summary']['digest'][:16]}",
                  file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, {attempted} task runs, failed_ratio {failed / attempted:.6g}")
        print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, first in runs[0]["metrics"].items():
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:34s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {bound:>6s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
