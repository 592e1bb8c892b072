"""Repeat the untraced benchmark over several seeds and report, per workload
and end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) against the metric's bound.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 60 \
        [--workloads a,b] [--out perfbench/baseline/steadiness.json]

A spread at or above a third of the bound is flagged; the committed file is
the evidence the bounds were set from.  Before each run a fixed pure-Python
loop is timed (``host_loop_s``): it does the same work every time, so its
drift is the host's, and it shows how much of a metric's spread the host
alone accounts for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run as bench  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def host_loop_s() -> float:
    """Median time of a fixed pure-Python loop, as a host speed probe."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spread_table(values: dict) -> dict:
    table = {}
    for metric in metrics.spec()["end_to_end"]:
        name, unit, better, bound = (metric[k] for k in ("name", "unit", "better", "bound"))
        series = values[name]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / statistics.median(series)
        table[name] = {
            "unit": unit, "better": better, "bound": bound,
            "median": statistics.median(series), "q1": q1, "q3": q3,
            "spread": spread, "below_third_of_bound": spread < bound / 3,
            "values": series,
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--workloads", default=",".join(metrics.benchmarked()))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    report = {"seconds": args.seconds, "seeds": seeds, "host": bench.host_metadata(),
              "workloads": {}}
    for workload in args.workloads.split(","):
        values = {metric["name"]: [] for metric in metrics.spec()["end_to_end"]}
        runs = []
        for seed in seeds:
            probe = host_loop_s()
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=bench.ROOT, capture_output=True, text=True, timeout=400)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in values:
                values[name].append(record["metrics"][name]["value"])
            runs.append({"seed": seed, "wall_s": time.monotonic() - start, "host_loop_s": probe,
                         "correct": record["correct"], "attempted": record["attempted"],
                         "failed": record["failed"]})
            print(f"{workload} seed={seed} wall={runs[-1]['wall_s']:.1f}s host_loop={probe:.4f}s "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        table = spread_table(values)
        probes = [run["host_loop_s"] for run in runs]
        q1, _, q3 = statistics.quantiles(probes, n=4)
        host = {"median": statistics.median(probes), "spread": (q3 - q1) / statistics.median(probes)}
        report["workloads"][workload] = {"runs": runs, "host_loop_s": host, "metrics": table}
        print(f"  {workload:16s} host_loop_s        median={host['median']:.5g} "
              f"spread={host['spread']:.3f}", flush=True)
        for name, row in table.items():
            flag = "" if row["below_third_of_bound"] else "  <-- spread >= bound/3"
            print(f"  {workload:16s} {name:18s} median={row['median']:.5g} "
                  f"spread={row['spread']:.3f} bound={row['bound']}{flag}", flush=True)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
